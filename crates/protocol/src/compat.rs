//! The frozen surface of the host wire: the owned envelope that
//! `benchmark/`'s codec probe and older tests name, kept as a shim over
//! the production codec — the one writer (`write_head`) and the one
//! parser ([`WireView::parse`]). Nothing on a run's path calls into it: a
//! strict-wire frame is encoded straight from its source shard and
//! applied from its bytes (DESIGN §5e). The blocking round trip of the
//! same surface is `WireTransport::route`, a provided method over
//! `send` + `sync`.

use crate::wire::{write_head, Shape, WireError, WireView};

/// An owned envelope's header: endpoints, the (superstep, loop) and
/// array the transfer is attributed to (`NO_ARRAY` for protocol-level
/// fault traffic), and the blocks it touches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireHeader {
    pub src: u32,
    pub dst: u32,
    pub superstep: u32,
    pub loop_id: u32,
    pub array: u32,
    pub blocks: Vec<u32>,
}

impl WireHeader {
    /// Header for a transfer covering the block range `[first, first+n)`.
    pub fn for_blocks(
        src: usize,
        dst: usize,
        ctx: (u32, u32),
        array: u32,
        first: usize,
        n: usize,
    ) -> Self {
        WireHeader {
            src: src as u32,
            dst: dst as u32,
            superstep: ctx.0,
            loop_id: ctx.1,
            array,
            blocks: (first..first + n).map(|b| b as u32).collect(),
        }
    }
}

/// An owned envelope: header, the fields of its kind and the payload
/// words (`f64::to_bits` of the shard data, so NaNs survive) — one frame
/// of the v1 layout (`crate::wire`) as values.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMsg {
    /// Compiler-directed send: contiguous blocks, owner → reader.
    Push {
        hdr: WireHeader,
        start_block: u32,
        n_blocks: u32,
        words: Vec<u64>,
    },
    /// Non-owner-write flush: contiguous blocks, writer → owner.
    Flush {
        hdr: WireHeader,
        start_block: u32,
        n_blocks: u32,
        words: Vec<u64>,
    },
    /// Fault-path word-range fetch (block data to a faulting node).
    Copy {
        hdr: WireHeader,
        start_word: u64,
        words: Vec<u64>,
    },
    /// Word diff of one block: `words[i]` is the value for the `i`-th
    /// set bit of `mask` (LSB first).
    Diff {
        hdr: WireHeader,
        block: u64,
        mask: u64,
        words: Vec<u64>,
    },
    /// Message-passing section: `count` runs of `run_len` words,
    /// starting at `base`, `stride` words apart; payload concatenates
    /// the runs in order.
    Strided {
        hdr: WireHeader,
        base: u64,
        run_len: u32,
        stride: u64,
        count: u32,
        words: Vec<u64>,
    },
}

impl WireMsg {
    /// The payload words.
    pub fn words(&self) -> &[u64] {
        self.hdr_words().1
    }

    fn hdr_words(&self) -> (&WireHeader, &[u64]) {
        match self {
            WireMsg::Push { hdr, words, .. }
            | WireMsg::Flush { hdr, words, .. }
            | WireMsg::Copy { hdr, words, .. }
            | WireMsg::Diff { hdr, words, .. }
            | WireMsg::Strided { hdr, words, .. } => (hdr, words),
        }
    }

    /// The kind and its fields, as the one writer takes them.
    fn shape(&self) -> Shape {
        match *self {
            WireMsg::Push {
                start_block,
                n_blocks,
                ..
            } => Shape::Push {
                start_block,
                n_blocks,
            },
            WireMsg::Flush {
                start_block,
                n_blocks,
                ..
            } => Shape::Flush {
                start_block,
                n_blocks,
            },
            WireMsg::Copy { start_word, .. } => Shape::Copy { start_word },
            WireMsg::Diff { block, mask, .. } => Shape::Diff { block, mask },
            WireMsg::Strided {
                base,
                run_len,
                stride,
                count,
                ..
            } => Shape::Strided {
                base,
                run_len,
                stride,
                count,
            },
        }
    }

    /// Write the v1 encoding into `out` (cleared first): the one writer's
    /// head, then the payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let ((hdr, words), shape) = (self.hdr_words(), self.shape());
        out.clear();
        let fields = [hdr.src, hdr.dst, hdr.superstep, hdr.loop_id, hdr.array];
        write_head(out, fields, hdr.blocks.iter().copied(), &shape, words.len());
        let at = out.len();
        out.resize(at + 8 * words.len(), 0);
        for (b, w) in out[at..].chunks_exact_mut(8).zip(words) {
            b.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// The v1 encoding as a fresh buffer, allocated once (`write_head`
    /// reserves the whole frame).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode and validate a v1 frame through the one parser and copy it
    /// out: a frame either reconstructs the envelope that was encoded or
    /// it is the parser's error.
    pub fn from_bytes(bytes: &[u8]) -> Result<WireMsg, WireError> {
        let v = WireView::parse(bytes)?;
        let [src, dst, superstep, loop_id, array] = v.fields;
        let blocks = (v.blocks.chunks_exact(4))
            .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte chunk")))
            .collect();
        let hdr = WireHeader {
            src,
            dst,
            superstep,
            loop_id,
            array,
            blocks,
        };
        let words = (v.words.chunks_exact(8))
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .collect();
        Ok(match v.shape {
            Shape::Push {
                start_block,
                n_blocks,
            } => WireMsg::Push {
                hdr,
                start_block,
                n_blocks,
                words,
            },
            Shape::Flush {
                start_block,
                n_blocks,
            } => WireMsg::Flush {
                hdr,
                start_block,
                n_blocks,
                words,
            },
            Shape::Copy { start_word } => WireMsg::Copy {
                hdr,
                start_word,
                words,
            },
            Shape::Diff { block, mask } => WireMsg::Diff {
                hdr,
                block,
                mask,
                words,
            },
            Shape::Strided {
                base,
                run_len,
                stride,
                count,
            } => WireMsg::Strided {
                hdr,
                base,
                run_len,
                stride,
                count,
                words,
            },
        })
    }
}
