//! Per-node event counters and timing breakdowns.
//!
//! These are the quantities the paper reports: Table 3 decomposes execution
//! into compute time and communication time (stall waiting for misses and
//! transfers + protocol occupancy + synchronization) and counts per-node
//! misses; Figure 3's speedups derive from total virtual time.

use crate::cluster::ChargeKind;
use crate::trace::{CtlPrim, Event, FaultKind};

/// Apply a callback macro to every counter field of [`NodeStats`], in
/// declaration order — the single source of truth for field-generic code
/// (interval deltas, accumulation, the canonical JSON encoding and the
/// profile invariant checks). Adding a field here and to the struct is
/// all it takes for every consumer to pick it up.
macro_rules! with_stat_fields {
    ($cb:ident) => {
        $cb!(
            compute_ns,
            stall_ns,
            handler_ns,
            barrier_ns,
            ctl_call_ns,
            read_misses,
            write_misses,
            msgs_sent,
            bytes_sent,
            msgs_recv,
            bytes_recv,
            pages_mapped,
            mk_writable_calls,
            implicit_writable_calls,
            implicit_invalidate_calls,
            send_range_calls,
            ready_recv_calls,
            flush_range_calls,
            blocks_pushed,
            reductions
        );
    };
}

/// Counters and time breakdown for one node.
#[derive(Clone, Default, Debug, PartialEq)]
pub struct NodeStats {
    /// Time spent computing (kernel execution).
    pub compute_ns: u64,
    /// Time stalled waiting for remote data (miss service, transfer waits).
    pub stall_ns: u64,
    /// Protocol handler occupancy executed on this node on behalf of
    /// remote requests (charged to the compute clock only in single-cpu
    /// mode, but always accounted here).
    pub handler_ns: u64,
    /// Time spent waiting at barriers.
    pub barrier_ns: u64,
    /// Time spent in compiler-inserted protocol calls (mk_writable,
    /// implicit_writable, send, ready_to_recv, implicit_invalidate, flush).
    pub ctl_call_ns: u64,
    /// Read misses taken through the default protocol.
    pub read_misses: u64,
    /// Write misses / upgrades taken through the default protocol.
    pub write_misses: u64,
    /// Messages sent (any kind).
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received (every send records a matching receive on the
    /// destination shard, so cluster-wide sent == received).
    pub msgs_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Pages mapped on first touch.
    pub pages_mapped: u64,
    /// Calls to each compiler-directed primitive, for ablation reporting.
    pub mk_writable_calls: u64,
    pub implicit_writable_calls: u64,
    pub implicit_invalidate_calls: u64,
    pub send_range_calls: u64,
    pub ready_recv_calls: u64,
    pub flush_range_calls: u64,
    /// Blocks pushed by compiler-directed sends.
    pub blocks_pushed: u64,
    /// Reductions participated in.
    pub reductions: u64,
}

impl NodeStats {
    /// Total misses (read + write).
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// The paper's "communication time": everything that is not kernel
    /// computation — miss stalls, compiler-call overhead, synchronization,
    /// and (in single-cpu mode, where it steals the compute CPU) handler
    /// occupancy. `handler_in_comm` selects whether handler time counts.
    ///
    /// This is the single timing decomposition in the codebase: the
    /// report's `comm_s`/`total_s` and the executors' `RunResult::total_s`
    /// all derive from it (or from the makespan) rather than re-summing
    /// counters themselves.
    pub fn comm_ns(&self, handler_in_comm: bool) -> u64 {
        let h = if handler_in_comm { self.handler_ns } else { 0 };
        self.stall_ns + self.barrier_ns + self.ctl_call_ns + h
    }

    /// Field-wise difference `self − prev`. Counters are monotone, so a
    /// later snapshot dominates an earlier one field by field; panics on
    /// underflow (which would mean a counter ran backwards).
    pub(crate) fn delta(&self, prev: &NodeStats) -> NodeStats {
        let mut out = NodeStats::default();
        macro_rules! sub {
            ($($f:ident),* $(,)?) => { $(out.$f = self.$f - prev.$f;)* };
        }
        with_stat_fields!(sub);
        out
    }

    /// Field-wise accumulate `other` into `self` — the inverse of
    /// `NodeStats::delta`: summing every interval delta reproduces the
    /// whole-run snapshot exactly.
    pub fn accumulate(&mut self, other: &NodeStats) {
        self.accumulate_times(other, 1);
    }

    /// [`NodeStats::accumulate`] `n` times over.
    pub(crate) fn accumulate_times(&mut self, other: &NodeStats, n: u64) {
        macro_rules! add {
            ($($f:ident),* $(,)?) => { $(self.$f += other.$f * n;)* };
        }
        with_stat_fields!(add);
    }

    /// Fold one trace event into the counters — the only place an event
    /// becomes statistics: [`NodeTrace`](crate::trace::NodeTrace) folds
    /// every recorded event here, and a replayed fault run folds its
    /// template here once.
    #[inline]
    pub(crate) fn fold(&mut self, event: &Event) {
        match *event {
            Event::Fault { kind, .. } => match kind {
                FaultKind::Read => self.read_misses += 1,
                FaultKind::Write | FaultKind::MultiWrite | FaultKind::Upgrade => {
                    self.write_misses += 1
                }
            },
            Event::Ctl { prim } => match prim {
                CtlPrim::MkWritable => self.mk_writable_calls += 1,
                CtlPrim::ImplicitWritable => self.implicit_writable_calls += 1,
                CtlPrim::ImplicitInvalidate => self.implicit_invalidate_calls += 1,
                CtlPrim::SendRange => self.send_range_calls += 1,
                CtlPrim::ReadyToRecv => self.ready_recv_calls += 1,
                CtlPrim::FlushRange => self.flush_range_calls += 1,
            },
            Event::CtlSend { blocks, .. } => self.blocks_pushed += blocks,
            Event::Msg { bytes, .. } => {
                self.msgs_sent += 1;
                self.bytes_sent += bytes;
            }
            Event::MsgRecv { bytes } => {
                self.msgs_recv += 1;
                self.bytes_recv += bytes;
            }
            Event::Charge { kind, ns } => match kind {
                ChargeKind::Compute => self.compute_ns += ns,
                ChargeKind::Stall => self.stall_ns += ns,
                ChargeKind::CtlCall => self.ctl_call_ns += ns,
            },
            Event::Handler { ns } => self.handler_ns += ns,
            Event::PageMap { pages } => self.pages_mapped += pages,
            Event::BarrierWait { ns } => self.barrier_ns += ns,
            Event::Barrier | Event::Superstep { .. } => {}
            Event::Reduction => self.reductions += 1,
        }
    }

    /// True if every counter is zero.
    pub(crate) fn is_zero(&self) -> bool {
        *self == NodeStats::default()
    }

    /// Append the canonical JSON object for this node's counters to
    /// `out` — the per-node encoding shared by
    /// [`ClusterReport::to_json`] and the profile artifacts. Fields
    /// appear in declaration order.
    pub(crate) fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        out.push('{');
        let mut first = true;
        macro_rules! emit {
            ($($f:ident),* $(,)?) => { $(
                if !first {
                    out.push(',');
                }
                first = false;
                write!(out, "\"{}\":{}", stringify!($f), self.$f).unwrap();
            )* };
        }
        with_stat_fields!(emit);
        let _ = first;
        out.push('}');
    }

    /// Visit every counter as a `(name, value)` pair, in declaration
    /// order — lets external checkers (the determinism suite, the fuzz
    /// invariants) compare stats field by field without hand-listing the
    /// fields.
    pub fn for_each_field(&self, mut f: impl FnMut(&'static str, u64)) {
        macro_rules! visit {
            ($($fld:ident),* $(,)?) => { $(f(stringify!($fld), self.$fld);)* };
        }
        with_stat_fields!(visit);
    }
}

/// Where the host wall-clock of one run went, by engine phase, in ns —
/// the executor's always-on phase clock: one `Instant` pair per phase per
/// superstep (per run for the first and the last two), summed. Real time
/// like [`ClusterReport::wall_ns`] and kept out of every canonical
/// encoding like it. Only the statement walk between supersteps is
/// outside every phase, so the phases sum to just under `wall_ns`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostPhases {
    /// Before the first statement: the cluster, its segments drawn from
    /// the [arena](crate::arena) (fresh only when it holds none of the
    /// run's shape), the wire carrier's workers.
    pub setup_ns: u64,
    /// Per-loop access analysis (when a variable it reads has moved:
    /// once for a static loop).
    pub analyze_ns: u64,
    /// Lowering (sections → word runs and ctl ranges) and every schedule
    /// build or refill — covers and false-shared blocks, the contract's,
    /// `mp`'s — each only when its key has moved.
    pub inspect_ns: u64,
    /// The default-protocol walk over the covers, servicing faults.
    pub walk_ns: u64,
    /// The rest of the backend's resolve: the §4.2 contract on `sm_opt`,
    /// the message exchange on `mp`.
    pub ctl_ns: u64,
    /// The compute phase (kernels).
    pub compute_ns: u64,
    /// After the kernels: write observation, reduction, the backend's
    /// loop-end cleanup and barrier, the superstep boundary.
    pub post_loop_ns: u64,
    /// After the last statement: the final barrier, the gather, the
    /// report and whichever trace documents were asked for; and, after
    /// the post-run checks, the segments' recycle into the arena
    /// ([`Cluster::recycle`](crate::Cluster::recycle)).
    pub finish_ns: u64,
    /// The post-run invariant checks.
    pub post_run_ns: u64,
}

impl HostPhases {
    /// Every phase as a `(name, ns)` pair, in execution order.
    pub fn rows(&self) -> [(&'static str, u64); 9] {
        [
            ("setup", self.setup_ns),
            ("analyze", self.analyze_ns),
            ("inspect", self.inspect_ns),
            ("walk", self.walk_ns),
            ("ctl", self.ctl_ns),
            ("compute", self.compute_ns),
            ("post_loop", self.post_loop_ns),
            ("finish", self.finish_ns),
            ("post_run", self.post_run_ns),
        ]
    }

    /// Sum of all phases.
    pub fn total_ns(&self) -> u64 {
        self.rows().iter().map(|&(_, ns)| ns).sum()
    }
}

/// Aggregated view over all nodes of a run.
///
/// Derived from the structured event traces ([`crate::trace::NodeTrace`],
/// one per shard): the per-node stats are the traces' folded aggregates,
/// so the report and the event log always agree.
#[derive(Clone, Debug, Default)]
pub struct ClusterReport {
    /// Per-node stats snapshot.
    pub nodes: Vec<NodeStats>,
    /// Whether handler occupancy steals compute-CPU time (single-cpu mode).
    pub handler_in_comm: bool,
    /// Final virtual time of the run (max node clock after last barrier).
    pub makespan_ns: u64,
    /// Host wall-clock the run took, in ns. Unlike every other field this
    /// is *real* time, stamped by the executor: it varies run to run and
    /// with the worker count, so it is deliberately excluded from the
    /// canonical [`ClusterReport::to_json`] encoding (which must be
    /// byte-identical between serial and parallel execution).
    pub wall_ns: u64,
    /// Where that wall-clock went, by engine phase (see [`HostPhases`]);
    /// host time like `wall_ns`, and excluded from the canonical
    /// encodings with it.
    pub host: HostPhases,
    /// Host time the wire transport spent blocked on its links — writing
    /// batches, waiting for and verifying their echoes — in ns (0 on the
    /// zero-copy fast path). Like [`ClusterReport::wall_ns`]
    /// this is *real* time — it measures the installed transport (channel
    /// hop, socket write and read), varies run to run, and is deliberately
    /// excluded from the canonical [`ClusterReport::to_json`] encoding so
    /// socket-backed and in-process runs stay byte-identical.
    pub wire_route_ns: u64,
    /// Per-superstep interval deltas: one entry per superstep (plus a
    /// trailing catch-all for events outside any superstep), each holding
    /// the per-node stats delta accrued during that superstep. Summing
    /// every interval reproduces [`ClusterReport::nodes`] exactly (see
    /// [`ClusterReport::check_profile_invariants`]). Excluded from
    /// [`ClusterReport::to_json`]; encoded by
    /// [`ClusterReport::profile_json`].
    pub intervals: Vec<crate::profile::StepInterval>,
    /// Multi-word blocks faulted by ≥2 distinct nodes within one
    /// superstep — the co-residency hazard `shmem_limits` shrinking
    /// exists to avoid.
    pub false_sharing: Vec<crate::profile::FalseSharingFlag>,
    /// Per-node block heatmaps folded from the event stream.
    pub heatmaps: Vec<crate::profile::NodeHeatmap>,
}

impl ClusterReport {
    /// Average per-node miss count.
    pub fn avg_misses(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.misses() as f64).sum::<f64>() / self.nodes.len() as f64
    }

    /// Maximum per-node compute time in seconds.
    pub fn compute_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.compute_ns).max().unwrap_or(0) as f64 / 1e9
    }

    /// Maximum per-node communication time in seconds.
    pub fn comm_s(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.comm_ns(self.handler_in_comm))
            .max()
            .unwrap_or(0) as f64
            / 1e9
    }

    /// Run makespan in seconds.
    pub fn total_s(&self) -> f64 {
        self.makespan_ns as f64 / 1e9
    }

    /// Total messages sent across all nodes.
    pub fn total_msgs(&self) -> u64 {
        self.nodes.iter().map(|n| n.msgs_sent).sum()
    }

    /// Total payload bytes sent across all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_sent).sum()
    }

    /// Total messages received across all nodes.
    pub fn total_msgs_recv(&self) -> u64 {
        self.nodes.iter().map(|n| n.msgs_recv).sum()
    }

    /// Total payload bytes received across all nodes.
    pub fn total_bytes_recv(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_recv).sum()
    }

    /// Trace invariant: every message sent was received somewhere —
    /// cluster-wide message and byte counters balance between senders
    /// and receivers. The executors assert this at the end of every run.
    pub fn traffic_balanced(&self) -> bool {
        self.total_msgs() == self.total_msgs_recv() && self.total_bytes() == self.total_bytes_recv()
    }

    /// Canonical JSON encoding of the *deterministic* run state: makespan,
    /// handler accounting mode and every per-node counter — but **not**
    /// `wall_ns`, which is host time. The determinism suite compares these
    /// strings byte-for-byte between serial and threaded execution, so the
    /// encoding must stay a pure function of the virtual-time state.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        write!(
            out,
            "{{\"makespan_ns\":{},\"handler_in_comm\":{},\"nodes\":[",
            self.makespan_ns, self.handler_in_comm
        )
        .unwrap();
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            n.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_time_composition() {
        let s = NodeStats {
            stall_ns: 100,
            barrier_ns: 50,
            ctl_call_ns: 25,
            handler_ns: 10,
            compute_ns: 1000,
            ..Default::default()
        };
        assert_eq!(s.comm_ns(false), 175);
        assert_eq!(s.comm_ns(true), 185);
    }

    #[test]
    fn report_aggregates() {
        let mut r = ClusterReport {
            nodes: vec![],
            ..Default::default()
        };
        r.nodes = vec![
            NodeStats {
                read_misses: 10,
                write_misses: 2,
                compute_ns: 3_000_000_000,
                ..Default::default()
            },
            NodeStats {
                read_misses: 6,
                compute_ns: 1_000_000_000,
                ..Default::default()
            },
        ];
        r.makespan_ns = 4_000_000_000;
        assert_eq!(r.avg_misses(), 9.0);
        assert_eq!(r.compute_s(), 3.0);
        assert_eq!(r.total_s(), 4.0);
    }

    #[test]
    fn traffic_balance_accessor() {
        let mut r = ClusterReport {
            nodes: vec![
                NodeStats {
                    msgs_sent: 3,
                    bytes_sent: 200,
                    msgs_recv: 1,
                    bytes_recv: 72,
                    ..Default::default()
                },
                NodeStats {
                    msgs_sent: 1,
                    bytes_sent: 72,
                    msgs_recv: 3,
                    bytes_recv: 200,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.total_msgs(), 4);
        assert_eq!(r.total_msgs_recv(), 4);
        assert_eq!(r.total_bytes(), 272);
        assert_eq!(r.total_bytes_recv(), 272);
        assert!(r.traffic_balanced());
        r.nodes[0].bytes_recv += 1;
        assert!(!r.traffic_balanced());
    }

    #[test]
    fn delta_and_accumulate_roundtrip() {
        let a = NodeStats {
            compute_ns: 100,
            read_misses: 3,
            bytes_sent: 64,
            ..Default::default()
        };
        let b = NodeStats {
            compute_ns: 250,
            read_misses: 7,
            bytes_sent: 64,
            reductions: 1,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.compute_ns, 150);
        assert_eq!(d.read_misses, 4);
        assert_eq!(d.bytes_sent, 0);
        assert_eq!(d.reductions, 1);
        let mut back = a.clone();
        back.accumulate(&d);
        assert_eq!(back, b);
        assert!(!d.is_zero());
        assert!(b.delta(&b).is_zero());
        let mut names = vec![];
        b.for_each_field(|n, _| names.push(n));
        assert_eq!(names.len(), 20, "every counter visited exactly once");
        assert_eq!(names[0], "compute_ns");
    }

    #[test]
    fn canonical_json_ignores_wall_clock() {
        let mut r = ClusterReport {
            nodes: vec![NodeStats {
                compute_ns: 123,
                read_misses: 4,
                ..Default::default()
            }],
            handler_in_comm: true,
            makespan_ns: 999,
            wall_ns: 0,
            ..Default::default()
        };
        let a = r.to_json();
        r.wall_ns = 55_555; // host time must not perturb the encoding
        r.wire_route_ns = 7_777; // measured transport time is host time too
        r.host.walk_ns = 3_333; // and so is the phase clock
        assert_eq!(r.host.total_ns(), 3_333);
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(!r.profile_json().contains("3333"));
        assert!(a.starts_with("{\"makespan_ns\":999,\"handler_in_comm\":true,"));
        assert!(a.contains("\"compute_ns\":123"));
        assert!(a.contains("\"read_misses\":4"));
        assert!(!a.contains("wall"));
    }
}
