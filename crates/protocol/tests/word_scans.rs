//! The range walk's word scans against their per-block definitions. Tags
//! are two bitsets per node and the directory's exclusive owners one per
//! node, so `Dsm::first_not_exclusive` / `first_invalid` read 64 blocks a
//! word; on random tag and directory states — `Multi` blocks, readers a
//! compiler left ReadWrite beside a directory-exclusive owner, and long
//! uniform runs written a range at a time — they must name the block a
//! scan through `tag()` and `dir_state()` names, on ranges that are empty,
//! one block, exactly one word, across word edges and in the segment's
//! last partial word.

use fgdsm_protocol::{DirState, Dsm};
use fgdsm_tempest::{Access, Cluster, CostModel, HomePolicy, NodeId, SegmentLayout};
use fgdsm_testkit::{check_cases, Rng};

const NODES: usize = 8;
/// 19 pages of 32 blocks: 608 blocks, the last bitset word half full.
const PAGES: usize = 19;

fn fresh() -> Dsm {
    let cfg = CostModel::paper_dual_cpu();
    let mut layout = SegmentLayout::new(cfg.words_per_page());
    layout.alloc(PAGES * cfg.words_per_page());
    Dsm::new(Cluster::new(NODES, cfg, &layout, HomePolicy::RoundRobin))
}

fn any_tag(rng: &mut Rng) -> Access {
    *rng.pick(&[Access::Invalid, Access::ReadOnly, Access::ReadWrite])
}

fn any_dir(rng: &mut Rng) -> DirState {
    let mask = |rng: &mut Rng| rng.below(1 << NODES);
    match rng.below(4) {
        0 | 1 => DirState::Excl {
            owner: rng.range(0, NODES),
        },
        2 => DirState::Shared { readers: mask(rng) },
        _ => DirState::Multi {
            writers: mask(rng),
            readers: mask(rng),
        },
    }
}

/// Scramble `d` run by run, mirroring every tag in `tags`: a uniform run
/// is one owner holding it exclusive and writable, written a range at a
/// time, with a few readers the compiler left ReadWrite; any other run is
/// random block by block.
fn scramble(rng: &mut Rng, d: &mut Dsm, tags: &mut [Vec<Access>]) {
    let n = d.cluster.n_blocks();
    let mut b = 0;
    while b < n {
        let end = (b + rng.range(1, 150)).min(n);
        if rng.flag() {
            let owner = rng.range(0, NODES);
            for node in 0..NODES {
                let a = match node == owner {
                    true => Access::ReadWrite,
                    false => *rng.pick(&[Access::Invalid, Access::ReadOnly]),
                };
                d.cluster.set_tag_range(node, b, end, a);
                tags[node][b..end].fill(a);
            }
            for blk in b..end {
                d.set_dir(blk, DirState::Excl { owner });
            }
            for _ in 0..rng.range(0, 3) {
                let (reader, blk) = (rng.range(0, NODES), rng.range(b, end));
                d.cluster.set_tag(reader, blk, Access::ReadWrite);
                tags[reader][blk] = Access::ReadWrite;
            }
        } else {
            for blk in b..end {
                d.set_dir(blk, any_dir(rng));
                for (node, of_node) in tags.iter_mut().enumerate() {
                    let a = any_tag(rng);
                    d.cluster.set_tag(node, blk, a);
                    of_node[blk] = a;
                }
            }
        }
        b = end;
    }
}

/// `[first, end)` ranges of every shape the scans must get right, plus
/// random ones.
fn ranges(rng: &mut Rng, n: usize) -> Vec<(usize, usize)> {
    let last_word = n / 64 * 64;
    let mut out = vec![
        (0, 0),
        (100, 100),
        (n, n),
        (0, 1),
        (63, 64),
        (64, 65),
        (n - 1, n),
        (64, 128),
        (0, 64),
        (60, 70),
        (63, 65),
        (127, 193),
        (last_word, n),
        (last_word - 3, n),
        (0, n),
    ];
    for _ in 0..24 {
        let f = rng.range(0, n + 1);
        out.push((f, rng.range(f, n + 1)));
    }
    out
}

#[test]
fn word_scans_equal_per_block_scans() {
    check_cases(48, |rng| {
        let mut d = fresh();
        let n = d.cluster.n_blocks();
        assert_eq!(n % 64, 32, "the last word is partial");
        let home_tag = |d: &Dsm, node: NodeId, b: usize| match d.cluster.home_of_block(b) == node {
            true => Access::ReadWrite,
            false => Access::Invalid,
        };
        let mut tags: Vec<Vec<Access>> = (0..NODES)
            .map(|node| (0..n).map(|b| home_tag(&d, node, b)).collect())
            .collect();
        for _ in 0..3 {
            scramble(rng, &mut d, &mut tags);
            for node in 0..NODES {
                for b in 0..n {
                    assert_eq!(d.cluster.tag(node, b), tags[node][b], "tag {node}/{b}");
                    let excl = d.dir_state(b).is_excl_by(node);
                    assert_eq!(d.excl_blocks(node).contains(b), excl, "excl {node}/{b}");
                }
            }
            let dirty = (0..n).filter(|&b| (0..NODES).any(|m| tags[m][b] != home_tag(&d, m, b)));
            assert!(d.cluster.dirty_blocks().iter().eq(dirty), "dirty tag set");
            for (f, e) in ranges(rng, n) {
                for p in 0..NODES {
                    let not_excl = (f..e).find(|&b| {
                        d.cluster.tag(p, b) != Access::ReadWrite || !d.dir_state(b).is_excl_by(p)
                    });
                    let invalid = (f..e).find(|&b| d.cluster.tag(p, b) == Access::Invalid);
                    let at = format!("node {p}, blocks {f}..{e}");
                    assert_eq!(d.first_not_exclusive(p, f, e), not_excl, "{at}");
                    assert_eq!(d.first_invalid(p, f, e), invalid, "{at}");
                }
            }
        }
    });
}
