//! Property tests for the cluster substrate: clock/charge accounting,
//! barrier alignment, page-mapping idempotence and segment layout.

use fgdsm_tempest::{ChargeKind, Cluster, CostModel, HomePolicy, SegmentLayout};
use fgdsm_testkit::check_cases;

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

#[test]
fn merged_percentiles_bound_the_per_part_percentiles() {
    use fgdsm_tempest::Histogram;
    check_cases(128, |rng| {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let na = rng.range(1, 200);
        let nb = rng.range(1, 200);
        for _ in 0..na {
            // Spread samples across the full bucket range, including the
            // saturating top bucket.
            let bits = rng.range(0, 65) as u32;
            let v = if bits == 0 {
                0
            } else {
                rng.below(u64::MAX >> (64 - bits)) | (1u64 << (bits - 1))
            };
            a.record(v);
        }
        for _ in 0..nb {
            let bits = rng.range(1, 40);
            let v = rng.below(1u64 << bits);
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), a.count() + b.count());
        assert_eq!(merged.min(), a.min().min(b.min()));
        assert_eq!(merged.max(), a.max().max(b.max()));
        for p in [0.5, 0.9, 0.99] {
            let (pa, pb, pm) = (a.percentile(p), b.percentile(p), merged.percentile(p));
            assert!(
                pa.min(pb) <= pm && pm <= pa.max(pb),
                "p{p}: merged {pm} outside [{}, {}]",
                pa.min(pb),
                pa.max(pb)
            );
        }
    });
}
