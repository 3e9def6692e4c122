//! The virtual-time cost model, calibrated against the paper's Table 1.
//!
//! | Quantity | Paper value | Model |
//! |---|---|---|
//! | Min roundtrip, 4-byte message | 40 µs | [`CostModel::roundtrip_ns`] |
//! | Network bandwidth | 20 MB/s | [`CostModel::per_byte_ns`] = 50 ns/B |
//! | Read miss, 128-byte block, dual-cpu | 93 µs | [`CostModel::read_miss_ns`] |
//!
//! The single-cpu configuration interleaves protocol processing with
//! computation on one HyperSPARC: handler work costs more (no dedicated
//! protocol processor, cache interference) and, crucially, every handler
//! executed on behalf of a *remote* node steals compute time from the local
//! one. [`CpuMode`] selects between the two design points of §5.

/// Whether a node dedicates its second CPU to protocol processing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CpuMode {
    /// Protocol handlers interleave with computation on the only CPU.
    Single,
    /// A dedicated protocol processor runs handlers (computation still uses
    /// exactly one CPU, as in the paper: "there are overall 8 computation
    /// threads in all versions").
    Dual,
}

/// All virtual-time constants, in nanoseconds.
///
/// Defaults are calibrated so the derived quantities reproduce Table 1.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Single or dual cpu protocol processing (§5).
    pub cpu: CpuMode,
    /// Coherence block size in bytes (Tempest: 32–128; paper uses 128).
    pub block_bytes: usize,
    /// Page size in bytes.
    pub page_bytes: usize,
    /// CPU overhead to compose and inject a message.
    pub msg_send_ns: u64,
    /// One-way wire latency.
    pub net_latency_ns: u64,
    /// Transfer cost per payload byte (1 / bandwidth).
    pub per_byte_ns: u64,
    /// Cost to receive and dispatch an active message to its handler.
    pub handler_dispatch_ns: u64,
    /// Access-fault detection and transition into the user-level handler.
    pub fault_detect_ns: u64,
    /// Directory lookup + update at the home node.
    pub dir_lookup_ns: u64,
    /// Changing the access tag of one block.
    pub tag_change_ns: u64,
    /// Copying one block between memory and a message buffer.
    pub block_copy_ns: u64,
    /// First-touch cost of mapping a remote page into the local segment.
    pub page_map_ns: u64,
    /// Fixed barrier cost plus per-node component.
    pub barrier_base_ns: u64,
    /// Per-participant barrier cost.
    pub barrier_per_node_ns: u64,
    /// Multiplier (×1000) applied to handler-side work in single-cpu mode.
    /// 1800 ⇒ handlers are 1.8× slower without a dedicated protocol CPU.
    pub single_cpu_handler_permille: u64,
    /// Per-message software overhead of the message-passing backend's
    /// runtime, charged once per contiguous run it transmits (models the
    /// "as yet unidentified performance bottlenecks in PGI's messaging
    /// run-time" the paper observed, §6).
    pub mp_per_message_ns: u64,
    /// Per-element marshalling (pack at the sender, unpack at the
    /// receiver) cost of the MP backend's generic section iterators.
    pub mp_per_element_ns: u64,
    /// Drain wait charged at a release point per outstanding eager-write
    /// transaction not yet acknowledged.
    pub release_drain_ns: u64,
    /// Largest payload a compiler-directed bulk transfer may carry
    /// (contiguous blocks grouped into one message, §4.2 "we group
    /// contiguous blocks and transfer them in larger payloads").
    pub bulk_max_bytes: usize,
}

impl CostModel {
    /// The paper's cluster (Table 1) with dual-cpu protocol processing.
    pub fn paper_dual_cpu() -> Self {
        CostModel {
            cpu: CpuMode::Dual,
            block_bytes: 128,
            page_bytes: 4096,
            msg_send_ns: 4_000,
            net_latency_ns: 12_000,
            per_byte_ns: 50, // 20 MB/s
            handler_dispatch_ns: 3_800,
            fault_detect_ns: 25_000,
            dir_lookup_ns: 8_000,
            tag_change_ns: 1_800,
            block_copy_ns: 5_000,
            page_map_ns: 80_000,
            barrier_base_ns: 150_000,
            barrier_per_node_ns: 20_000,
            single_cpu_handler_permille: 1_800,
            mp_per_message_ns: 400_000,
            mp_per_element_ns: 3_000,
            release_drain_ns: 6_000,
            bulk_max_bytes: 4096,
        }
    }

    /// The paper's cluster with single-cpu (interleaved) protocol
    /// processing.
    pub fn paper_single_cpu() -> Self {
        CostModel {
            cpu: CpuMode::Single,
            ..Self::paper_dual_cpu()
        }
    }

    /// Elements (f64 words) per coherence block.
    pub fn words_per_block(&self) -> usize {
        self.block_bytes / 8
    }

    /// Words per page.
    pub fn words_per_page(&self) -> usize {
        self.page_bytes / 8
    }

    /// Scale a handler-side cost for the configured CPU mode.
    pub fn handler_cost(&self, ns: u64) -> u64 {
        match self.cpu {
            CpuMode::Dual => ns,
            CpuMode::Single => ns * self.single_cpu_handler_permille / 1000,
        }
    }

    /// One-way message cost seen by the *sender's* critical path:
    /// injection + wire latency + payload transfer. Handler dispatch is
    /// charged at the destination separately.
    pub fn one_way_ns(&self, payload_bytes: usize) -> u64 {
        self.msg_send_ns + self.net_latency_ns + self.per_byte_ns * payload_bytes as u64
    }

    /// Minimum roundtrip for a short message: request out, handler
    /// dispatch, reply back, dispatch at origin. Table 1 reports 40 µs for
    /// a 4-byte payload.
    pub fn roundtrip_ns(&self, payload_bytes: usize) -> u64 {
        2 * self.one_way_ns(payload_bytes) + 2 * self.handler_cost(self.handler_dispatch_ns)
    }

    /// End-to-end read-miss time for one block when the home holds a clean
    /// copy: fault detection, request to home, directory lookup, data
    /// response, install. Table 1 reports 93 µs for 128-byte blocks in the
    /// dual-cpu configuration.
    pub fn read_miss_ns(&self) -> u64 {
        self.fault_detect_ns
            + self.one_way_ns(8) // read-request carries the address
            + self.handler_cost(self.handler_dispatch_ns)
            + self.handler_cost(self.dir_lookup_ns)
            + self.handler_cost(self.block_copy_ns)
            + self.one_way_ns(self.block_bytes)
            + self.handler_cost(self.handler_dispatch_ns)
            + self.block_copy_ns // install at requester
            + 2 * self.tag_change_ns // home tag bookkeeping + requester tag
    }

    /// Barrier completion cost for `n` participants (tree dissemination).
    pub fn barrier_cost_ns(&self, n: usize) -> u64 {
        self.barrier_base_ns + self.barrier_per_node_ns * (n.max(1) as u64 - 1)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_dual_cpu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_roundtrip_is_40us() {
        let c = CostModel::paper_dual_cpu();
        let rt = c.roundtrip_ns(4);
        assert!(
            (39_000..=41_000).contains(&rt),
            "roundtrip {rt} ns should be ≈40 µs"
        );
    }

    #[test]
    fn table1_bandwidth_is_20mb_per_s() {
        let c = CostModel::paper_dual_cpu();
        // 20 MB/s == 50 ns per byte.
        assert_eq!(c.per_byte_ns, 50);
    }

    #[test]
    fn table1_read_miss_is_93us() {
        let c = CostModel::paper_dual_cpu();
        let rm = c.read_miss_ns();
        assert!(
            (90_000..=96_000).contains(&rm),
            "read miss {rm} ns should be ≈93 µs"
        );
    }

    #[test]
    fn single_cpu_miss_is_slower() {
        let d = CostModel::paper_dual_cpu();
        let s = CostModel::paper_single_cpu();
        assert!(s.read_miss_ns() > d.read_miss_ns());
        assert_eq!(s.handler_cost(1000), 1800);
        assert_eq!(d.handler_cost(1000), 1000);
    }

    #[test]
    fn block_geometry() {
        let c = CostModel::paper_dual_cpu();
        assert_eq!(c.words_per_block(), 16);
        assert_eq!(c.words_per_page(), 512);
    }

    #[test]
    fn barrier_scales_with_participants() {
        let c = CostModel::paper_dual_cpu();
        assert!(c.barrier_cost_ns(8) > c.barrier_cost_ns(2));
    }
}
