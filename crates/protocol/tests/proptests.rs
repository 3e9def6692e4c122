//! Property tests for the default protocol: random BSP intervals with a
//! race-free access discipline (per interval, each block has at most one
//! writer unless explicitly multi-written, plus any number of readers)
//! must keep the directory consistent at every barrier and propagate
//! values exactly like an idealized shared memory.
#![allow(clippy::needless_range_loop)] // word loops index the model vec in parallel

use fgdsm_protocol::{plan_sends, Dsm, SendEntry, TransferPlan, WireError, WireHeader, WireMsg};
use fgdsm_tempest::{Cluster, CostModel, HomePolicy, SegmentLayout};
use fgdsm_testkit::{check_cases, Rng};

const NPROCS: usize = 4;
const BLOCKS: usize = 24;

#[derive(Debug, Clone)]
struct Interval {
    /// Per block: Some(writer mask) — bit per node; None = not written.
    writers: Vec<Option<u8>>,
    /// Per block: reader mask.
    readers: Vec<u8>,
}

fn random_interval(rng: &mut Rng) -> Interval {
    let mut writers = Vec::with_capacity(BLOCKS);
    let mut readers = Vec::with_capacity(BLOCKS);
    for _ in 0..BLOCKS {
        let w = rng.below(16) as u8;
        // Bias toward at most one writer; allow multi occasionally.
        writers.push(match w {
            0..=7 => None,
            8..=11 => Some(1u8 << (w % 4)), // one writer
            _ => Some((1u8 << (w % 4)) | (1u8 << ((w + 1) % 4))), // two writers
        });
        readers.push(rng.below(16) as u8);
    }
    Interval { writers, readers }
}

fn fresh() -> Dsm {
    let cfg = CostModel::paper_dual_cpu();
    let mut layout = SegmentLayout::new(cfg.words_per_page());
    layout.alloc(BLOCKS * cfg.words_per_block());
    Dsm::new(Cluster::new(NPROCS, cfg, &layout, HomePolicy::RoundRobin))
}

#[test]
fn random_intervals_stay_coherent() {
    check_cases(64, |rng| {
        let n_ivs = rng.range(1, 8);
        let ivs: Vec<Interval> = rng.vec(n_ivs, random_interval);
        let mut d = fresh();
        let wpb = d.cluster.words_per_block();
        // Idealized shared memory: the model value of every word.
        let mut model = vec![0.0f64; BLOCKS * wpb];
        let mut stamp = 1.0f64;

        for iv in &ivs {
            // Access sub-phase: writes (multi when >1 writer or when the
            // block is also read remotely), then reads — the same
            // discipline the executor derives from its census.
            for b in 0..BLOCKS {
                if let Some(wmask) = iv.writers[b] {
                    let writers: Vec<usize> =
                        (0..NPROCS).filter(|&n| wmask & (1 << n) != 0).collect();
                    let remote_reader =
                        (0..NPROCS).any(|n| iv.readers[b] & (1 << n) != 0 && !writers.contains(&n));
                    if writers.len() > 1 || remote_reader {
                        for &w in &writers {
                            d.write_access_multi(w, b);
                        }
                    } else {
                        d.write_access_excl(writers[0], b);
                    }
                }
            }
            for b in 0..BLOCKS {
                for n in 0..NPROCS {
                    if iv.readers[b] & (1 << n) != 0 {
                        d.read_access(n, b);
                    }
                }
            }
            // Readers observe the model values (data written in previous
            // intervals must have propagated).
            for b in 0..BLOCKS {
                let (s, e) = d.cluster.block_words(b);
                for n in 0..NPROCS {
                    if iv.readers[b] & (1 << n) != 0 {
                        for w in s..e {
                            assert_eq!(
                                d.cluster.node_mem(n)[w].to_bits(),
                                model[w].to_bits(),
                                "reader {n} of block {b} word {w}"
                            );
                        }
                    }
                }
            }
            // Kernel sub-phase: each writer writes a disjoint word slice
            // of the block (element-level race freedom).
            for b in 0..BLOCKS {
                if let Some(wmask) = iv.writers[b] {
                    let writers: Vec<usize> =
                        (0..NPROCS).filter(|&n| wmask & (1 << n) != 0).collect();
                    let (s, e) = d.cluster.block_words(b);
                    let span = (e - s) / writers.len();
                    for (k, &w) in writers.iter().enumerate() {
                        let lo = s + k * span;
                        let hi = if k + 1 == writers.len() { e } else { lo + span };
                        for word in lo..hi {
                            let v = stamp + word as f64 * 1e-6;
                            d.cluster.node_mem_mut(w)[word] = v;
                            model[word] = v;
                        }
                    }
                    stamp += 1.0;
                }
            }
            d.release_barrier();
            if let Err(e) = d.check_consistency() {
                panic!("inconsistent after barrier: {e}");
            }
        }
        // Final gather through the directory matches the model exactly.
        for b in 0..BLOCKS {
            let src = match d.dir_state(b) {
                fgdsm_protocol::DirState::Excl { owner } => owner,
                _ => d.cluster.home_of_block(b),
            };
            let (s, e) = d.cluster.block_words(b);
            for w in s..e {
                assert_eq!(
                    d.cluster.node_mem(src)[w].to_bits(),
                    model[w].to_bits(),
                    "gather of block {b} word {w}"
                );
            }
        }
    });
}

/// Build a dsm over a larger segment, so random call sites span pages.
fn fresh_big(nprocs: usize, blocks: usize) -> Dsm {
    let cfg = CostModel::paper_dual_cpu();
    let mut layout = SegmentLayout::new(cfg.words_per_page());
    layout.alloc(blocks * cfg.words_per_block());
    Dsm::new(Cluster::new(nprocs, cfg, &layout, HomePolicy::RoundRobin))
}

/// Random merged send call sites over random geometries.
fn random_entries(rng: &mut Rng, nprocs: usize, blocks: usize) -> Vec<SendEntry> {
    let n = rng.range(1, 7);
    rng.vec(n, |r| {
        let owner = r.below(nprocs as u64) as usize;
        let mut readers: Vec<usize> = (0..nprocs).filter(|&p| p != owner && r.flag()).collect();
        if readers.is_empty() {
            readers.push((owner + 1) % nprocs);
        }
        let first = r.range(0, blocks - 1);
        let end = (first + r.range(1, 96)).min(blocks);
        SendEntry {
            owner,
            readers,
            first,
            end,
            array: fgdsm_tempest::NO_ARRAY,
        }
    })
}

fn payload_blocks(p: &TransferPlan) -> Vec<usize> {
    p.payloads
        .iter()
        .flat_map(|q| q.start_block..q.start_block + q.n_blocks)
        .collect()
}

/// Plan extraction over random ranges and geometries: the emitted plans
/// partition exactly the blocks the direct per-entry path would have
/// pushed — per (owner, reader) pair, the payload blocks are the
/// concatenation of that pair's entry ranges in entry order, under both
/// payload groupings.
#[test]
fn plans_partition_direct_path_blocks_random() {
    const BIG: usize = 512;
    check_cases(96, |rng| {
        let nprocs = rng.range(2, 6);
        let entries = random_entries(rng, nprocs, BIG);
        let bulk = rng.flag();
        let d = fresh_big(nprocs, BIG);
        let plans = plan_sends(&d.cluster, d.faults, &entries, bulk);
        let mut expect: std::collections::BTreeMap<(usize, usize), Vec<usize>> = Default::default();
        for en in &entries {
            for &r in &en.readers {
                expect
                    .entry((en.owner, r))
                    .or_default()
                    .extend(en.first..en.end);
            }
        }
        assert_eq!(
            plans.len(),
            expect.len(),
            "one plan per (owner, reader) pair"
        );
        for p in &plans {
            assert_eq!(
                payload_blocks(p),
                expect[&(p.src, p.dst)],
                "plan {} -> {} (bulk={bulk})",
                p.src,
                p.dst
            );
        }
        // Stable order.
        let keys: Vec<(usize, usize)> = plans.iter().map(|p| (p.src, p.dst)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    });
}

/// A random header whose block list is consistent with what the
/// Push/Flush variants require (decode cross-checks `n_blocks` against
/// the header block list).
fn random_wire_hdr(rng: &mut Rng) -> (WireHeader, usize, usize) {
    let first = rng.range(0, 1 << 16);
    let n = rng.range(0, 9);
    let hdr = WireHeader::for_blocks(
        rng.range(0, 64),
        rng.range(0, 64),
        (rng.below(1 << 20) as u32, rng.below(1 << 12) as u32),
        if rng.flag() {
            u32::MAX
        } else {
            rng.below(64) as u32
        },
        first,
        n,
    );
    (hdr, first, n)
}

fn random_words(rng: &mut Rng, n: usize) -> Vec<u64> {
    rng.vec(n, |r| match r.below(4) {
        0 => f64::NAN.to_bits(),
        1 => (-0.0f64).to_bits(),
        2 => u64::MAX,
        _ => r.next_u64(),
    })
}

fn random_wire_msg(rng: &mut Rng) -> WireMsg {
    let (hdr, first, n) = random_wire_hdr(rng);
    match rng.below(5) {
        0 => {
            let nw = rng.range(0, 65);
            WireMsg::Push {
                hdr,
                start_block: first as u32,
                n_blocks: n as u32,
                words: random_words(rng, nw),
            }
        }
        1 => {
            let nw = rng.range(0, 65);
            WireMsg::Flush {
                hdr,
                start_block: first as u32,
                n_blocks: n as u32,
                words: random_words(rng, nw),
            }
        }
        2 => {
            let nw = rng.range(0, 65);
            WireMsg::Copy {
                hdr,
                start_word: rng.below(1 << 40),
                words: random_words(rng, nw),
            }
        }
        3 => {
            let mask = rng.next_u64() & rng.next_u64(); // sparse-ish
            let words = random_words(rng, mask.count_ones() as usize);
            WireMsg::Diff {
                hdr,
                block: rng.below(1 << 30),
                mask,
                words,
            }
        }
        _ => {
            let run_len = rng.range(0, 9) as u32;
            let count = rng.range(0, 9) as u32;
            WireMsg::Strided {
                hdr,
                base: rng.below(1 << 40),
                run_len,
                stride: rng.below(1 << 20),
                count,
                words: random_words(rng, (run_len * count) as usize),
            }
        }
    }
}

/// Every envelope variant with random headers, geometries and payloads
/// (NaNs, signed zeros, all-ones words) survives encode → decode
/// bit-exactly, through fresh buffers and recycled ones alike.
#[test]
fn wire_envelopes_round_trip_random() {
    check_cases(256, |rng| {
        let msg = random_wire_msg(rng);
        let bytes = msg.to_bytes();
        assert_eq!(
            WireMsg::from_bytes(&bytes).expect("fresh encode must decode"),
            msg,
            "kind {}",
            bytes[4]
        );
        // `encode` into a dirty pooled buffer is byte-identical.
        let mut pooled = vec![0xA5u8; rng.range(0, 200)];
        msg.encode(&mut pooled);
        assert_eq!(pooled, bytes);
    });
}

/// Decode validation has no blind spots: no strict prefix of a valid
/// frame decodes, and flipping any single bit either fails decode or
/// yields a *different* envelope — never a silent misparse back to the
/// original (every encoded byte is semantic; there is no padding).
#[test]
fn wire_decode_rejects_mutations_random() {
    check_cases(128, |rng| {
        let msg = random_wire_msg(rng);
        let bytes = msg.to_bytes();
        let cut = rng.range(0, bytes.len());
        assert!(
            WireMsg::from_bytes(&bytes[..cut]).is_err(),
            "prefix of len {cut}/{} must not decode",
            bytes.len()
        );
        let mut flipped = bytes.clone();
        let at = rng.range(0, flipped.len());
        flipped[at] ^= 1 << rng.below(8);
        match WireMsg::from_bytes(&flipped) {
            Err(_) => {}
            Ok(m2) => assert_ne!(m2, msg, "bit flip at byte {at} decoded as the original"),
        }
    });
}

/// Segment geometry of the decoder differential: 16 words per block,
/// 16 blocks.
const DIFF_WPB: usize = 16;
const DIFF_SEG: usize = 256;

/// A golden frame of a random kind whose geometry lands inside the
/// differential's segment — often flush against its end — or, when the
/// second value is true, one word (or one mask bit) past it.
fn frame_near_the_segment(rng: &mut Rng) -> (WireMsg, bool) {
    let hdr = |first: usize, n: usize| WireHeader::for_blocks(0, 1, (2, 3), 4, first, n);
    // An edge case lands exactly on the boundary, or one past it.
    let edge = |rng: &mut Rng| match rng.below(4) {
        0 => Some(0),
        1 => Some(1),
        _ => None,
    };
    let blocks = DIFF_SEG / DIFF_WPB;
    match rng.below(5) {
        0 | 1 => {
            let n = rng.range(1, 4);
            let at = edge(rng);
            let start = at.map_or_else(|| rng.range(0, blocks - n), |_| blocks - n);
            let nw = n * DIFF_WPB + at.unwrap_or(0);
            let (start_block, n_blocks) = (start as u32, n as u32);
            let words = random_words(rng, nw);
            let msg = if rng.flag() {
                WireMsg::Push {
                    hdr: hdr(start, n),
                    start_block,
                    n_blocks,
                    words,
                }
            } else {
                WireMsg::Flush {
                    hdr: hdr(start, n),
                    start_block,
                    n_blocks,
                    words,
                }
            };
            (msg, at == Some(1))
        }
        2 => {
            let nw = rng.range(1, 40);
            let at = edge(rng);
            let start = at.map_or_else(|| rng.range(0, DIFF_SEG - nw), |p| DIFF_SEG - nw + p);
            let msg = WireMsg::Copy {
                hdr: hdr(start / DIFF_WPB, 1),
                start_word: start as u64,
                words: random_words(rng, nw),
            };
            (msg, at == Some(1))
        }
        3 => {
            // The mask's top bit at the block's last word or one past it,
            // and the block the segment's last or one past it.
            let (top_at, block_at) = (edge(rng), edge(rng));
            let top = top_at.map_or_else(|| rng.range(0, DIFF_WPB), |p| DIFF_WPB - 1 + p);
            let mask = (rng.next_u64() & ((1u64 << top) - 1)) | 1 << top;
            let block = block_at.map_or_else(|| rng.range(0, blocks), |p| blocks - 1 + p);
            let msg = WireMsg::Diff {
                hdr: hdr(block, 1),
                block: block as u64,
                mask,
                words: random_words(rng, mask.count_ones() as usize),
            };
            (msg, top_at == Some(1) || block_at == Some(1))
        }
        _ => {
            let (run_len, count) = (rng.range(1, 6), rng.range(1, 6));
            let stride = rng.range(0, 30);
            let reach = (count - 1) * stride + run_len;
            let at = edge(rng);
            let base = at.map_or_else(|| rng.range(0, DIFF_SEG - reach), |p| DIFF_SEG - reach + p);
            let msg = WireMsg::Strided {
                hdr: hdr(base / DIFF_WPB, 1),
                base: base as u64,
                run_len: run_len as u32,
                stride: stride as u64,
                count: count as u32,
                words: random_words(rng, run_len * count),
            };
            (msg, at == Some(1))
        }
    }
}

/// Mutate an encoded frame the ways a hostile or broken peer would: a
/// bit flip, truncation, a lying block count, payload length or
/// `n_blocks`, another kind byte, a trailing byte — or leave it golden.
fn mutate_frame(rng: &mut Rng, msg: &WireMsg, bytes: &mut Vec<u8>) -> &'static str {
    let u32_at =
        |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    // Header: magic, version, kind, five u32 fields, then the block count
    // at 25 and the blocks; the payload length sits before the payload.
    let n_blocks_at = 29 + 4 * u32_at(bytes, 25) as usize + 4;
    let nwords_at = bytes.len() - 8 * msg.words().len() - 8;
    let lie = |rng: &mut Rng, v: u64| match rng.below(3) {
        0 => v.wrapping_add(1),
        1 => v.wrapping_sub(1),
        _ => rng.next_u64(),
    };
    match rng.below(8) {
        0 => "golden",
        1 => {
            let at = rng.range(0, bytes.len());
            bytes[at] ^= 1 << rng.below(8);
            "bit flip"
        }
        2 => {
            bytes.truncate(rng.range(0, bytes.len()));
            "truncated"
        }
        3 => {
            let n = lie(rng, u32_at(bytes, 25) as u64) as u32;
            bytes[25..29].copy_from_slice(&n.to_le_bytes());
            "lying nblocks"
        }
        4 => {
            let n = lie(rng, msg.words().len() as u64);
            bytes[nwords_at..nwords_at + 8].copy_from_slice(&n.to_le_bytes());
            "lying nwords"
        }
        5 if matches!(msg, WireMsg::Push { .. } | WireMsg::Flush { .. }) => {
            let n = lie(rng, u32_at(bytes, n_blocks_at) as u64) as u32;
            bytes[n_blocks_at..n_blocks_at + 4].copy_from_slice(&n.to_le_bytes());
            "lying n_blocks"
        }
        6 => {
            bytes[4] = rng.below(8) as u8;
            "kind byte"
        }
        _ => {
            bytes.push(rng.below(256) as u8);
            "trailing byte"
        }
    }
}

/// The reference apply the decoder differential compares against: store
/// an owned envelope's payload into the words of `mem` its fields name,
/// the addresses worked out here afresh from the variant fields, in
/// `u128` so nothing wraps, with the same typed rejections as the
/// production geometry and nothing written unless every word fits.
fn reference_scatter(msg: &WireMsg, mem: &mut [u64], wpb: usize) -> Result<(), WireError> {
    let (words, seg, wpb) = (msg.words(), mem.len() as u128, wpb as u128);
    let n = words.len() as u128;
    let (base, run_len, stride, count) = match *msg {
        WireMsg::Push { start_block, .. } | WireMsg::Flush { start_block, .. } => {
            (u128::from(start_block) * wpb, n, 0, 1)
        }
        WireMsg::Copy { start_word, .. } => (start_word.into(), n, 0, 1),
        WireMsg::Strided {
            base,
            run_len,
            stride,
            count,
            ..
        } => (base.into(), run_len.into(), stride.into(), count.into()),
        WireMsg::Diff { block, mask, .. } => {
            let base = u128::from(block) * wpb;
            let span = u128::from(64 - mask.leading_zeros());
            let why = match () {
                _ if base > usize::MAX as u128 => "diff block",
                _ if span > wpb => "diff mask bit past the block",
                _ if base + span > seg => "diff block past the segment",
                _ => {
                    let bits = (0..64).filter(|i| mask >> i & 1 == 1);
                    bits.zip(words)
                        .for_each(|(i, w)| mem[base as usize + i] = *w);
                    return Ok(());
                }
            };
            return Err(WireError::OutOfSegment(why));
        }
    };
    let addrs: Vec<u128> = match n {
        0 => Vec::new(),
        _ => (0..count)
            .flat_map(|r| (0..run_len).map(move |i| base + r * stride + i))
            .collect(),
    };
    if addrs.last().is_some_and(|&a| a >= seg) {
        return Err(WireError::OutOfSegment("last run ends past the segment"));
    }
    addrs
        .iter()
        .zip(words)
        .for_each(|(&a, w)| mem[a as usize] = *w);
    Ok(())
}

/// One decoder, tested differentially: over golden frames of every kind
/// near the segment's edge and their mutations, parsing in place and
/// applying from the frame's bytes (`WireView`) accepts exactly the
/// frames that decoding into an owned envelope and scattering it by the
/// reference (`WireMsg::from_bytes` + `reference_scatter`) accepts,
/// rejects the rest with the same `WireError`, and leaves the same
/// memory. A golden run ending exactly at the segment's end applies; one
/// word past it does not.
#[test]
fn wire_view_apply_matches_decode_and_scatter() {
    use fgdsm_protocol::WireView;
    check_cases(2048, |rng| {
        let (msg, past_the_edge) = frame_near_the_segment(rng);
        let mut bytes = msg.to_bytes();
        let how = mutate_frame(rng, &msg, &mut bytes);
        let mem: Vec<u64> = random_words(rng, DIFF_SEG);
        let mut by_view: Vec<f64> = mem.iter().map(|&w| f64::from_bits(w)).collect();
        let viewed = WireView::parse(&bytes).and_then(|v| v.scatter(&mut by_view, DIFF_WPB));
        let by_view: Vec<u64> = by_view.iter().map(|w| w.to_bits()).collect();
        let mut by_msg = mem.clone();
        let owned =
            WireMsg::from_bytes(&bytes).and_then(|m| reference_scatter(&m, &mut by_msg, DIFF_WPB));
        assert_eq!(viewed, owned, "{how}: {msg:?}");
        assert!(
            by_view == by_msg,
            "{how}: the two applies wrote different memory"
        );
        if viewed.is_err() {
            assert!(by_view == mem, "{how}: a rejected frame wrote memory");
        }
        if how == "golden" {
            if past_the_edge {
                assert!(
                    matches!(viewed, Err(WireError::OutOfSegment(_))),
                    "one past the edge must be rejected: {msg:?} -> {viewed:?}"
                );
            } else {
                assert_eq!(viewed, Ok(()), "inside the segment: {msg:?}");
            }
        }
    });
}

#[test]
fn ctl_contract_random_ranges() {
    check_cases(64, |rng| {
        let n_ranges = rng.range(1, 6);
        let ranges: Vec<(usize, usize)> =
            rng.vec(n_ranges, |r| (r.range(0, BLOCKS), r.range(1, 8)));
        let bulk = rng.flag();
        let memo = rng.flag();
        // Random compiler-controlled pushes over random (possibly
        // overlapping) block ranges always end consistent and deliver the
        // owner's data.
        let mut d = fresh();
        let wpb = d.cluster.words_per_block();
        for (start, len) in ranges {
            let end = (start + len).min(BLOCKS);
            if end <= start {
                continue;
            }
            d.mk_writable(1, start, end);
            d.release_barrier();
            d.implicit_writable(2, start, end, memo);
            d.release_barrier();
            for w in start * wpb..end * wpb {
                d.cluster.node_mem_mut(1)[w] = w as f64 + 0.5;
            }
            d.send_range(1, &[2], start, end, bulk);
            d.ready_to_recv(2);
            for w in start * wpb..end * wpb {
                assert_eq!(d.cluster.node_mem(2)[w], w as f64 + 0.5);
            }
            if !memo {
                d.implicit_invalidate(2, start, end);
            }
            d.release_barrier();
            if !memo {
                if let Err(e) = d.check_consistency() {
                    panic!("{e}");
                }
            }
        }
    });
}

/// Read one message from `stream` through a fresh `MessageBuf`, the way
/// a socket hands bytes back: reads of 1 to 7 bytes, except that a read
/// which would leave `tail` bytes or fewer behind takes them all. Returns
/// the message, and whether the reader asked for more once `stream` up to
/// `watch` had been delivered. The end of `stream` is a hang-up.
fn read_split(
    rng: &mut Rng,
    stream: &[u8],
    tail: usize,
    watch: usize,
) -> (Result<Vec<u8>, WireError>, bool) {
    let (mut buf, mut at, mut asked_past) = (fgdsm_protocol::MessageBuf::default(), 0, false);
    let got = buf.read(0, |room| {
        asked_past |= at >= watch;
        let mut n = rng.range(1, 8).min(stream.len() - at);
        if stream.len() - at - n <= tail {
            n = stream.len() - at;
        }
        let n = n.min(room.len());
        if n == 0 {
            return Err(WireError::PeerGone(0));
        }
        room[..n].copy_from_slice(&stream[at..at + n]);
        at += n;
        Ok(n)
    });
    (got.map(|m| m.to_vec()), asked_past)
}

/// The framing layer reads a link one message at a time — a lone control
/// frame, or a `Batch{n}` marker and its `n` frames (empty ones included)
/// — from any split of the byte stream: 1-byte reads, short writes,
/// record boundaries straddling reads. Each message comes out whole,
/// exactly once and in order; a prefix that takes a message past the cap
/// is `FrameTooBig` before its bytes are asked for; bytes past a batch
/// are a typed error; a message cut short waits for the rest (here the
/// link hangs up).
#[test]
fn framing_round_trips_over_arbitrary_stream_splits() {
    use fgdsm_protocol::{write_frame, MAX_MESSAGE_BYTES};
    check_cases(256, |rng| {
        let bytes = |rng: &mut Rng, len: usize| rng.vec(len, |rng| rng.below(256) as u8);
        let count = rng.range(1, 6);
        let messages: Vec<Vec<u8>> = rng.vec(count, |rng| {
            if rng.flag() {
                // A lone frame: never 9 bytes, so never a batch marker.
                let mut len = rng.below(200) as usize;
                len += usize::from(len == 9);
                let mut image = Vec::new();
                write_frame(&mut image, &bytes(rng, len));
                image
            } else {
                // The `Batch{n}` marker: control magic, version 1, kind 2, `n`.
                let n = rng.below(6) as u32;
                let mut image = Vec::new();
                write_frame(
                    &mut image,
                    &[&[0x58, 0xFD, 1, 0, 2][..], &n.to_le_bytes()].concat(),
                );
                for _ in 0..n {
                    let len = rng.below(120) as usize;
                    write_frame(&mut image, &bytes(rng, len));
                }
                image
            }
        });
        // The peer writes a message only once the last one is answered,
        // so a read never reaches into the next.
        for m in &messages {
            assert_eq!(read_split(rng, m, 0, usize::MAX).0, Ok(m.clone()));
        }

        let m = rng.pick(&messages).clone();
        let prefixes: Vec<usize> = {
            let mut at = 0;
            std::iter::from_fn(|| {
                let here = at;
                let len = u32::from_le_bytes(m.get(at..at + 4)?.try_into().unwrap());
                at += 4 + len as usize;
                Some(here)
            })
            .collect()
        };
        // A prefix past the cap: refused before its bytes are asked for.
        let at = *rng.pick(&prefixes);
        let over = MAX_MESSAGE_BYTES - (at + 4) + 1;
        let len = rng.range(over, u32::MAX as usize + 1) as u32;
        let mut bad = m.clone();
        bad[at..at + 4].copy_from_slice(&len.to_le_bytes());
        let (got, asked_past) = read_split(rng, &bad, 0, at + 4);
        assert_eq!(
            got,
            Err(WireError::FrameTooBig((at + 4) as u64 + len as u64))
        );
        assert!(!asked_past, "a read past an oversized prefix");
        // Bytes past a batch, arriving with its end, are the peer out of
        // step. A message of one record is read exactly — the coordinator
        // may write the next one at once (`HelloAck`, then the first
        // batch) — so what follows it is left for the next read.
        let extra = rng.range(1, 5);
        let mut long = m.clone();
        long.extend(bytes(rng, extra));
        let (got, _) = read_split(rng, &long, extra, usize::MAX);
        if prefixes.len() == 1 {
            assert_eq!(got, Ok(m.clone()));
        } else {
            assert!(
                matches!(got, Err(WireError::BadReply { node: 0, .. })),
                "{got:?}"
            );
        }
        // A message cut inside its last record waits for the rest.
        let cut = prefixes.last().unwrap()
            + 1
            + rng.below((m.len() - prefixes.last().unwrap() - 1) as u64) as usize;
        let (got, _) = read_split(rng, &m[..cut], 0, usize::MAX);
        assert_eq!(got, Err(WireError::PeerGone(0)));
    });
}
