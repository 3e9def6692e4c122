//! Property tests for the cluster substrate: clock/charge accounting,
//! barrier alignment, page-mapping idempotence and segment layout.

use fgdsm_tempest::{
    BlockHeat, ChargeKind, Cluster, CostModel, Event, FaultKind, HomePolicy, SegmentLayout,
    NO_BLOCK,
};
use fgdsm_testkit::check_cases;
use std::collections::BTreeMap;

fn cluster(nprocs: usize, words: usize) -> Cluster {
    let cfg = CostModel::paper_dual_cpu();
    let mut layout = SegmentLayout::new(cfg.words_per_page());
    layout.alloc(words);
    Cluster::new(nprocs, cfg, &layout, HomePolicy::RoundRobin)
}

#[test]
fn charges_accumulate_exactly() {
    check_cases(64, |rng| {
        let n_charges = rng.range(0, 64);
        let charges: Vec<(usize, u64, u8)> = rng.vec(n_charges, |r| {
            (r.range(0, 4), r.below(100_000), r.below(3) as u8)
        });
        let mut c = cluster(4, 2048);
        let mut expect = [[0u64; 3]; 4];
        for &(node, ns, kind) in &charges {
            let k = match kind {
                0 => ChargeKind::Compute,
                1 => ChargeKind::Stall,
                _ => ChargeKind::CtlCall,
            };
            c.charge(node, ns, k);
            expect[node][kind as usize] += ns;
        }
        #[allow(clippy::needless_range_loop)]
        for n in 0..4 {
            let st = c.stats(n);
            assert_eq!(st.compute_ns, expect[n][0]);
            assert_eq!(st.stall_ns, expect[n][1]);
            assert_eq!(st.ctl_call_ns, expect[n][2]);
            assert_eq!(c.clock_ns(n), expect[n][0] + expect[n][1] + expect[n][2]);
        }
    });
}

#[test]
fn barrier_aligns_all_clocks_past_the_max() {
    check_cases(64, |rng| {
        let pre: Vec<u64> = rng.vec(4, |r| r.below(1_000_000));
        let mut c = cluster(4, 2048);
        for (n, &ns) in pre.iter().enumerate() {
            c.charge(n, ns, ChargeKind::Compute);
        }
        let max_before = *pre.iter().max().unwrap();
        c.barrier();
        let t = c.clock_ns(0);
        assert!(t >= max_before + c.cfg().barrier_cost_ns(4));
        for n in 1..4 {
            assert_eq!(c.clock_ns(n), t);
        }
        // Barrier wait accounting: the slowest node waited the least.
        let slowest = pre.iter().enumerate().max_by_key(|(_, &v)| v).unwrap().0;
        for n in 0..4 {
            assert!(c.stats(slowest).barrier_ns <= c.stats(n).barrier_ns);
        }
    });
}

#[test]
fn map_range_charges_each_page_once() {
    check_cases(64, |rng| {
        let n_ranges = rng.range(1, 20);
        let ranges: Vec<(usize, usize)> =
            rng.vec(n_ranges, |r| (r.range(0, 4000), r.range(1, 600)));
        let mut c = cluster(2, 4096);
        let mut mapped_total = 0;
        for &(start, len) in &ranges {
            let len = len.min(4096 - start.min(4095));
            if len == 0 {
                continue;
            }
            let start = start.min(4095);
            let n1 = c.map_range(1, start, len.min(4096 - start));
            mapped_total += n1;
            // Second touch is free.
            assert_eq!(c.map_range(1, start, len.min(4096 - start)), 0);
        }
        assert_eq!(c.stats(1).pages_mapped, mapped_total);
        assert!(mapped_total <= 8); // 4096 words = 8 pages
    });
}

#[test]
fn segment_layout_never_overlaps() {
    check_cases(64, |rng| {
        let n_sizes = rng.range(1, 12);
        let sizes: Vec<usize> = rng.vec(n_sizes, |r| r.range(1, 3000));
        let mut layout = SegmentLayout::new(512);
        let mut allocs = Vec::new();
        for &sz in &sizes {
            let base = layout.alloc(sz);
            assert_eq!(base % 512, 0, "allocations are page-aligned");
            allocs.push((base, sz));
        }
        for (i, &(b1, s1)) in allocs.iter().enumerate() {
            for &(b2, s2) in &allocs[i + 1..] {
                assert!(b1 + s1 <= b2 || b2 + s2 <= b1, "allocations overlap");
            }
        }
        assert!(layout.total_words() >= allocs.iter().map(|&(b, s)| b + s).max().unwrap());
    });
}

#[test]
fn copy_words_is_exact() {
    check_cases(64, |rng| {
        let start = rng.range(0, 1000);
        let len = rng.range(0, 500).min(2048 - start);
        let seed = rng.below(1000);
        let mut c = cluster(3, 2048);
        for w in 0..2048 {
            c.node_mem_mut(0)[w] = (w as f64) * 0.5 + seed as f64;
        }
        c.copy_words(0, 2, start, len);
        for w in 0..2048 {
            let expect = if w >= start && w < start + len {
                (w as f64) * 0.5 + seed as f64
            } else {
                0.0
            };
            assert_eq!(c.node_mem(2)[w].to_bits(), expect.to_bits());
        }
    });
}

/// The block-keyed heat table folds exactly what an ordered map folds:
/// random faults of every kind, attributed and unattributed messages
/// (repeated blocks, zero-byte payloads) and pushed ranges, with
/// superstep context changes between them. The sorted heat, the report's
/// heatmaps and the profile invariants must all agree with the reference.
#[test]
fn heat_table_folds_like_an_ordered_map() {
    const KINDS: [FaultKind; 4] = [
        FaultKind::Read,
        FaultKind::Write,
        FaultKind::Upgrade,
        FaultKind::MultiWrite,
    ];
    check_cases(64, |rng| {
        let nprocs = 3;
        let mut c = cluster(nprocs, 4096);
        let nb = c.n_blocks();
        // A small pool of hot blocks makes repeats common; the rest of the
        // segment keeps first touches spread out.
        let hot: Vec<usize> = rng.vec(6, |r| r.range(0, nb));
        let mut want: Vec<BTreeMap<u32, BlockHeat>> = vec![BTreeMap::new(); nprocs];
        let mut step = None;
        for _ in 0..rng.range(0, 400) {
            let node = rng.range(0, nprocs);
            let block = if rng.flag() {
                *rng.pick(&hot)
            } else {
                rng.range(0, nb)
            };
            let h = &mut want[node];
            let event = match rng.below(5) {
                0 | 1 => {
                    let kind = *rng.pick(&KINDS);
                    let e = h.entry(block as u32).or_default();
                    match kind {
                        FaultKind::Read => e.read_misses += 1,
                        FaultKind::Write | FaultKind::MultiWrite => e.write_misses += 1,
                        FaultKind::Upgrade => {
                            e.write_misses += 1;
                            e.upgrades += 1;
                        }
                    }
                    Event::Fault { block, kind }
                }
                2 => {
                    let bytes = 64 * rng.below(3);
                    let block = if rng.flag() { block as u32 } else { NO_BLOCK };
                    if block != NO_BLOCK {
                        h.entry(block).or_default().bytes_sent += bytes;
                    }
                    Event::Msg { bytes, block }
                }
                3 => {
                    let blocks = rng.range(0, 5.min(nb - block + 1)) as u64;
                    for b in block as u64..block as u64 + blocks {
                        h.entry(b as u32).or_default().pushed += 1;
                    }
                    Event::CtlSend {
                        blocks,
                        first_block: block as u32,
                        array: 0,
                    }
                }
                _ => {
                    match step.take() {
                        Some(s) => c.end_superstep(s, 0),
                        None => {
                            let s = rng.below(8) as u32;
                            c.begin_superstep(s, 0);
                            step = Some(s);
                        }
                    }
                    continue;
                }
            };
            c.record(node, event);
        }
        if let Some(s) = step {
            c.end_superstep(s, 0);
        }
        let report = c.report();
        report.check_profile_invariants().unwrap();
        for (n, want) in want.iter().enumerate() {
            let want: Vec<(u32, BlockHeat)> = want.iter().map(|(&b, &h)| (b, h)).collect();
            assert_eq!(c.node_trace(n).heat(), want, "node {n}");
            assert_eq!(report.heatmaps[n].blocks, want, "node {n}");
        }
    });
}
