//! Property tests for the default protocol: random BSP intervals with a
//! race-free access discipline (per interval, each block has at most one
//! writer unless explicitly multi-written, plus any number of readers)
//! must keep the directory consistent at every barrier and propagate
//! values exactly like an idealized shared memory.
#![allow(clippy::needless_range_loop)] // word loops index the model vec in parallel

use fgdsm_protocol::{plan_sends, Dsm, SendEntry, TransferPlan, WireHeader, WireMsg};
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
        let plans = plan_sends(&d.cluster, d.injection(), &entries, bulk);
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
            msg.kind()
        );
        // `encode` into a dirty pooled buffer is byte-identical.
        let mut pooled = vec![0xA5u8; rng.range(0, 200)];
        msg.encode(&mut pooled);
        assert_eq!(pooled, bytes);
        assert_eq!(msg.payload_bytes() as usize % 8, 0);
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

/// The framing layer must reassemble any sequence of length-prefixed
/// frames from any split of the byte stream — 1-byte reads, short
/// writes, frame boundaries straddling read boundaries — and flag a
/// truncated trailing frame at EOF.
#[test]
fn framing_round_trips_over_arbitrary_stream_splits() {
    use fgdsm_protocol::{write_frame, FrameDecoder};
    check_cases(256, |rng| {
        let nframes = rng.range(1, 10);
        let frames: Vec<Vec<u8>> = rng.vec(nframes, |rng| {
            let len = rng.below(200) as usize;
            rng.vec(len, |rng| rng.below(256) as u8)
        });
        let mut stream = Vec::new();
        for f in &frames {
            write_frame(&mut stream, f);
        }
        // Deliver the stream in random partial reads (often 1 byte), the
        // way a socket hands bytes back.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut pos = 0;
        while pos < stream.len() {
            let n = rng.range(1, 8).min(stream.len() - pos);
            dec.push(&stream[pos..pos + n]);
            pos += n;
            while let Some(f) = dec.next_frame().expect("well-formed stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames, "reassembly must be split-invariant");
        assert!(!dec.has_partial(), "clean stream leaves no partial bytes");

        // Truncate the stream inside the last record: every earlier
        // frame still decodes, the last is lost, and the fragment is
        // flagged as partial at EOF.
        let last_rec = 4 + frames.last().unwrap().len();
        let start_last = stream.len() - last_rec;
        let cut = start_last + 1 + rng.below(last_rec as u64 - 1) as usize;
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..cut]);
        let mut whole = 0usize;
        while let Some(f) = dec.next_frame().expect("prefix stays well-formed") {
            assert_eq!(f, frames[whole]);
            whole += 1;
        }
        assert_eq!(whole, frames.len() - 1, "exactly the last frame is lost");
        assert!(
            dec.has_partial(),
            "truncated trailing frame must be visible at EOF"
        );
    });
}
