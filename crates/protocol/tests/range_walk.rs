//! The range-granular fault entry points against the per-block path they
//! replace: on a hand-built state mixing hits, cold faults, upgrades and a
//! `Multi` block, [`EagerInvalidate`]'s scanning overrides, the
//! [`Protocol`] trait's provided per-block loops, and the per-block
//! facade calls must leave byte-identical trace rings, statistics,
//! directory and tags; and from random states, a like-run serviced as one
//! transaction must leave what its blocks serviced one by one leave.

use fgdsm_protocol::{DirState, Dsm, EagerInvalidate, Protocol};
use fgdsm_tempest::{Access, Cluster, CostModel, HomePolicy, NodeId, SegmentLayout};
use fgdsm_testkit::Rng;

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
    let heat: std::collections::BTreeMap<_, _> =
        by_block.cluster.node_trace(1).heat().into_iter().collect();
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

/// A small DSM for the run property: 4 nodes over 48 pages of 4 blocks,
/// whose homes come in runs of 1–4 pages, so a range crosses homes and
/// pages of one home alike.
fn random_dsm(rng: &mut Rng, mut cfg: CostModel, cap: usize) -> Dsm {
    cfg.block_bytes = 128;
    cfg.page_bytes = 512;
    let mut layout = SegmentLayout::new(cfg.words_per_page());
    layout.alloc(48 * cfg.words_per_page());
    let mut homes = Vec::new();
    while homes.len() < 48 {
        let (h, n) = (rng.range(0, NODES), rng.range(1, 5));
        homes.extend(std::iter::repeat_n(h, n));
    }
    homes.truncate(48);
    let mut cluster = Cluster::new(NODES, cfg, &layout, HomePolicy::Explicit(homes));
    cluster.set_ring_capacity(cap);
    Dsm::new(cluster)
}

/// One step of driving both twins into a random state, block by block on
/// each: reads and steals over a range, a false-shared write, a release,
/// and fresh data wherever the writer holds the block writable.
fn drive(rng: &mut Rng, twins: &mut [&mut Dsm; 2], stamp: &mut f64) {
    let n_blocks = twins[0].cluster.n_blocks();
    let (p, b) = (rng.range(0, NODES), rng.range(0, n_blocks));
    let e = (b + rng.range(1, 13)).min(n_blocks);
    let op = rng.range(0, 10);
    for d in twins.iter_mut() {
        match op {
            0..=3 => (b..e).for_each(|b| d.read_access(p, b)),
            4..=7 => {
                for b in b..e {
                    if !matches!(d.dir_state(b), DirState::Multi { .. }) {
                        d.write_access_excl(p, b);
                    }
                }
            }
            8 => d.write_access_multi(p, b),
            _ => d.release_barrier(),
        }
        let wpb = d.cluster.words_per_block();
        for b in b..e {
            if d.cluster.tag(p, b) == Access::ReadWrite {
                d.cluster.node_mem_mut(p)[b * wpb] = *stamp + b as f64;
            }
        }
    }
    *stamp += 1000.0;
}

/// Everything a run could move: per node its clock, folded statistics,
/// heat, tags and data, the report and profile, and the directory — plus
/// the kept trace entries.
fn observe_all(d: &Dsm) -> String {
    let mut out = d.cluster.trace_json();
    out += &d.cluster.report().to_json();
    out += &d.cluster.report().profile_json();
    for n in 0..NODES {
        let tags: Vec<_> = (0..d.cluster.n_blocks())
            .map(|b| d.cluster.tag(n, b))
            .collect();
        let mem: Vec<u64> = d.cluster.node_mem(n).iter().map(|x| x.to_bits()).collect();
        out += &format!(
            "{n}: {} {:?} {:?} {tags:?} {mem:?}\n",
            d.cluster.clock_ns(n),
            d.cluster.stats(n),
            d.cluster.node_trace(n).heat(),
        );
    }
    let dirs: Vec<_> = (0..d.cluster.n_blocks()).map(|b| d.dir_state(b)).collect();
    out + &format!("{dirs:?}")
}

/// The runs of 3 or more faults `p`'s access to `[first, end)` meets
/// that share a home, a directory state and `p`'s tag — the like-runs the
/// range methods service as one transaction (ignoring unmapped pages) —
/// by directory state: `[Shared, Excl at home, Excl elsewhere]`.
fn like_runs(d: &Dsm, p: NodeId, first: usize, end: usize, write: bool) -> [usize; 3] {
    let faults = |b: usize| match write {
        true => !(d.cluster.tag(p, b) == Access::ReadWrite && d.dir_state(b).is_excl_by(p)),
        false => d.cluster.tag(p, b) == Access::Invalid,
    };
    let key = |b: usize| {
        (
            d.cluster.home_of_block(b),
            d.dir_state(b),
            d.cluster.tag(p, b),
        )
    };
    let mut seen = [0; 3];
    let mut b = first;
    while b < end {
        let mut e = b + 1;
        while faults(b) && e < end && faults(e) && key(e) == key(b) {
            e += 1;
        }
        if e - b >= 3 {
            match d.dir_state(b) {
                DirState::Shared { .. } => seen[0] += 1,
                DirState::Excl { owner } if owner == d.cluster.home_of_block(b) => seen[1] += 1,
                DirState::Excl { .. } => seen[2] += 1,
                DirState::Multi { .. } => {}
            }
        }
        b = e;
    }
    seen
}

/// A run is its blocks: from random tag, directory and mapping states,
/// `read_access_range` / `write_access_range` leave exactly what the
/// per-block `read_access` / `write_access_excl` loop leaves on a twin —
/// with no trace ring (a like-run serviced as one transaction, folded in
/// closed form) and with the ring kept (every fault serviced block by
/// block, the entries compared too), under both cost models.
#[test]
fn a_run_is_its_blocks() {
    let mut runs = [0; 3];
    for (cost, cap) in [
        (CostModel::paper_dual_cpu(), 1 << 20),
        (CostModel::paper_dual_cpu(), 0),
        (CostModel::paper_single_cpu(), 1 << 20),
        (CostModel::paper_single_cpu(), 0),
    ] {
        for seed in 0..12 {
            let mut rng = Rng::new(seed);
            let mut ranged = random_dsm(&mut rng.clone(), cost, cap);
            let mut single = random_dsm(&mut rng, cost, cap);
            let mut stamp = 1.0;
            for _ in 0..60 {
                drive(&mut rng, &mut [&mut ranged, &mut single], &mut stamp);
            }
            for step in 0..16u32 {
                let n_blocks = ranged.cluster.n_blocks();
                let p = rng.range(0, NODES);
                let first = rng.range(0, n_blocks);
                let end = (first + rng.range(1, 40)).min(n_blocks);
                let write = rng.flag();
                if write {
                    // A steal never meets a `Multi` block: release first.
                    ranged.release_barrier();
                    single.release_barrier();
                }
                if cap == 0 {
                    let seen = like_runs(&single, p, first, end, write);
                    (0..3).for_each(|k| runs[k] += seen[k]);
                }
                for d in [&mut ranged, &mut single] {
                    d.cluster.begin_superstep(step, 0);
                }
                if write {
                    ranged.write_access_range(p, first, end);
                    (first..end).for_each(|b| single.write_access_excl(p, b));
                } else {
                    ranged.read_access_range(p, first, end);
                    (first..end).for_each(|b| single.read_access(p, b));
                }
                for d in [&mut ranged, &mut single] {
                    d.cluster.end_superstep(step, 0);
                }
                let what = format!("seed {seed} cap {cap} {:?} step {step}", cost.cpu);
                assert_eq!(observe_all(&ranged), observe_all(&single), "{what}");
                drive(&mut rng, &mut [&mut ranged, &mut single], &mut stamp);
            }
            for d in [&mut ranged, &mut single] {
                d.release_barrier();
                d.check_consistency().unwrap();
            }
            assert_eq!(observe_all(&ranged), observe_all(&single), "seed {seed}");
        }
    }
    assert!(runs.iter().all(|&n| n > 10), "like-runs met: {runs:?}");
}
