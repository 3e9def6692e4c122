//! The range-granular fault entry points against the per-block path they
//! replace: on a hand-built state mixing hits, cold faults, upgrades and a
//! `Multi` block, [`EagerInvalidate`]'s scanning overrides, the
//! [`Protocol`] trait's provided per-block loops, and the per-block
//! facade calls must leave byte-identical trace rings, statistics,
//! directory and tags.

use fgdsm_protocol::{DirState, Dsm, EagerInvalidate, Protocol};
use fgdsm_tempest::{Access, Cluster, CostModel, HomePolicy, NodeId, SegmentLayout};

/// `EagerInvalidate` minus its range overrides: the provided bodies run.
struct PerBlock(EagerInvalidate);

impl Protocol for PerBlock {
    fn name(&self) -> &'static str {
        "eager-invalidate/per-block"
    }
    fn supports_ctl(&self) -> bool {
        true
    }
    fn read_access(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
        self.0.read_access(d, p, b);
    }
    fn write_access_excl(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
        self.0.write_access_excl(d, p, b);
    }
    fn write_access_multi(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
        self.0.write_access_multi(d, p, b);
    }
    fn release(&mut self, d: &mut Dsm) {
        self.0.release(d);
    }
    fn check(&self, d: &Dsm) -> Result<(), String> {
        self.0.check(d)
    }
}

const NODES: usize = 4;
const WRITES: (usize, usize) = (0, 12);
const READS: (usize, usize) = (12, 24);

/// Blocks 0–31 home on node 0. Before the walk, node 1 (the walker) holds
/// 2–3 read-only (its writes there are upgrades) and 5–6 exclusive (hits),
/// node 2 owns 9 (a steal that flushes the owner) and 14 (a 4-hop read),
/// nodes 2 and 3 false-share 16 (a read through the `Multi` arm, twins
/// refreshed), and node 1 already reads 18–19 (hits).
fn prepared(proto: Box<dyn Protocol>) -> Dsm {
    let cfg = CostModel::paper_dual_cpu();
    let mut layout = SegmentLayout::new(cfg.words_per_page());
    layout.alloc(4096);
    let cluster = Cluster::new(NODES, cfg, &layout, HomePolicy::RoundRobin);
    let mut d = Dsm::with_protocol_impl(cluster, proto);
    for b in [2, 3, 18, 19] {
        d.read_access(1, b);
    }
    for b in [5, 6] {
        d.write_access_excl(1, b);
    }
    for b in [9, 14] {
        d.write_access_excl(2, b);
        d.cluster.node_mem_mut(2)[b * 16 + 1] = b as f64;
    }
    d.write_access_multi(2, 16);
    d.write_access_multi(3, 16);
    d.cluster.node_mem_mut(2)[16 * 16] = 2.5;
    d.cluster.node_mem_mut(3)[16 * 16 + 1] = 3.5;
    d
}

/// Everything observable about a DSM: every node's trace ring and folded
/// statistics, then directory state and tags of every block.
fn observe(d: &Dsm) -> (String, String, Vec<(DirState, Vec<Access>)>) {
    let blocks = (0..d.cluster.n_blocks())
        .map(|b| {
            let tags = (0..NODES).map(|n| d.cluster.tag(n, b)).collect();
            (d.dir_state(b), tags)
        })
        .collect();
    (d.cluster.trace_json(), d.cluster.report().to_json(), blocks)
}

#[test]
fn range_walk_matches_the_per_block_path() {
    let mut by_block = prepared(Box::new(EagerInvalidate::new()));
    for b in WRITES.0..WRITES.1 {
        by_block.write_access_excl(1, b);
    }
    for b in READS.0..READS.1 {
        by_block.read_access(1, b);
    }

    let mut scanned = prepared(Box::new(EagerInvalidate::new()));
    let mut provided = prepared(Box::new(PerBlock(EagerInvalidate::new())));
    for d in [&mut scanned, &mut provided] {
        d.write_access_range(1, WRITES.0, WRITES.1);
        d.read_access_range(1, READS.0, READS.1);
    }

    // The state really had every case in it.
    let stats = by_block.cluster.stats(1).clone();
    let heat = by_block.cluster.node_trace(1).heat();
    assert_eq!(heat[&2].upgrades + heat[&3].upgrades, 2, "two upgrades");
    assert_eq!(stats.write_misses, 2 + 10, "5 and 6 hit, the rest fault");
    assert_eq!(stats.read_misses, 4 + 10, "18 and 19 hit, the rest fault");
    assert!(matches!(by_block.dir_state(16), DirState::Multi { .. }));
    assert_eq!(by_block.cluster.node_mem(1)[16 * 16], 2.5);
    assert_eq!(by_block.cluster.node_mem(1)[16 * 16 + 1], 3.5);
    assert_eq!(by_block.cluster.node_mem(1)[14 * 16 + 1], 14.0);
    assert_eq!(by_block.cluster.node_mem(1)[9 * 16 + 1], 9.0);

    let want = observe(&by_block);
    assert_eq!(observe(&scanned), want, "EagerInvalidate's scan diverges");
    assert_eq!(observe(&provided), want, "the provided loops diverge");
    for d in [&mut by_block, &mut scanned, &mut provided] {
        d.release_barrier();
        d.check_consistency().unwrap();
    }
    assert_eq!(observe(&scanned), observe(&by_block));
}

/// An empty range and a range of hits cost nothing and record nothing.
#[test]
fn ranges_without_faults_are_free() {
    let mut d = prepared(Box::new(EagerInvalidate::new()));
    let before = observe(&d);
    d.write_access_range(1, 5, 5);
    d.write_access_range(1, 5, 7);
    d.read_access_range(1, 18, 20);
    d.read_access_range(1, 2, 4);
    d.write_access_range(0, 20, 32);
    assert_eq!(observe(&d), before);
    assert_eq!(d.first_not_exclusive(1, 5, 9), Some(7));
    assert_eq!(d.first_invalid(1, 2, 8), Some(4));
}
