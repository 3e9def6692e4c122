//! Property tests for the owner relation: BLOCK and CYCLIC owner ranges
//! must exactly partition the distributed dimension and agree with
//! `owner_of`, for every processor count.

use fgdsm_hpf::{ArrayDecl, Dist};
use fgdsm_testkit::check_cases;

fn decl(dist: Dist, n: usize) -> ArrayDecl {
    ArrayDecl {
        name: "a",
        extents: vec![4, n],
        dist,
    }
}

fn check_partition(dist: Dist, n: usize, nprocs: usize) {
    let a = decl(dist, n);
    let mut seen = vec![false; n];
    for p in 0..nprocs {
        for j in a.owner_range(p, nprocs).iter() {
            assert!(!seen[j as usize], "column {j} owned twice");
            seen[j as usize] = true;
            assert_eq!(a.owner_of(j, nprocs), p);
        }
    }
    assert!(seen.iter().all(|&s| s), "every column must be owned");
}

#[test]
fn owner_ranges_partition_block() {
    check_cases(128, |rng| {
        check_partition(Dist::Block, rng.range(1, 200), rng.range(1, 17));
    });
}

#[test]
fn owner_ranges_partition_cyclic() {
    check_cases(128, |rng| {
        check_partition(Dist::Cyclic, rng.range(1, 200), rng.range(1, 17));
    });
}

#[test]
fn owner_sections_are_disjoint_and_complete() {
    check_cases(128, |rng| {
        let n = rng.range(1, 100);
        let nprocs = rng.range(1, 9);
        let dist = *rng.pick(&[Dist::Block, Dist::Cyclic]);
        let a = decl(dist, n);
        let total: u64 = (0..nprocs)
            .map(|p| a.owner_section(p, nprocs).count())
            .sum();
        assert_eq!(total, (4 * n) as u64);
        for p in 0..nprocs {
            for q in p + 1..nprocs {
                let sp = a.owner_section(p, nprocs);
                let sq = a.owner_section(q, nprocs);
                assert!(
                    sp.intersect(&sq).iter().all(|s| s.is_empty()),
                    "owner sections of {p} and {q} overlap"
                );
            }
        }
    });
}
