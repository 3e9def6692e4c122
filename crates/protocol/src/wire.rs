//! The host wire format: every strict-wire transfer travels as a
//! self-contained frame — an attributed header, the fields of its kind
//! and an explicit payload — under a versioned, deterministic binary
//! encoding with no external serialization dependency.
//!
//! There is one writer (`write_head`) and one parser
//! ([`WireView::parse`]). A posted frame is encoded straight from its
//! source shard into a [`FrameBatch`] (`encode_gathered`), so it no
//! longer needs the source alive — the property a cross-process
//! transport needs — and both ends apply it from its bytes through a
//! borrowed [`WireView`]. The owned envelope of the frozen surface
//! ([`crate::compat`]) is a shim over the same writer and parser.
//!
//! ## v1 binary layout (all fields little-endian)
//!
//! | offset | field | type |
//! |---|---|---|
//! | 0 | magic (`0xFD57`) | u16 |
//! | 2 | version (`1`) | u16 |
//! | 4 | kind (0=Push 1=Flush 2=Copy 3=Diff 4=Strided) | u8 |
//! | 5 | src | u32 |
//! | 9 | dst | u32 |
//! | 13 | superstep | u32 |
//! | 17 | loop_id | u32 |
//! | 21 | array | u32 |
//! | 25 | block-list length `n` | u32 |
//! | 29 | attributed blocks | n × u32 |
//! | … | Push, Flush: `start_block`, `n_blocks` | u32, u32 |
//! | … | Copy: `start_word` | u64 |
//! | … | Diff: `block`, `mask` | u64, u64 |
//! | … | Strided: `base`, `run_len`, `stride`, `count` | u64, u32, u64, u32 |
//! | … | payload length `w` | u64 |
//! | … | payload words (`f64::to_bits`) | w × u64 |
//!
//! Versioning rule: any change to the header layout or a variant's
//! field set bumps `WIRE_VERSION`; decoders reject every version they
//! were not built for (no silent best-effort parsing). The golden-bytes
//! test below pins the v1 layout against accidental breaks.

use crate::node::FLUSH_WINDOW_BYTES;
use fgdsm_tempest::cursor::{Cursor, Truncated};
use std::time::Duration;

/// First two bytes of every frame.
pub(crate) const WIRE_MAGIC: u16 = 0xFD57;
/// Current format version; decoders accept exactly this.
pub(crate) const WIRE_VERSION: u16 = 1;
/// First two bytes of every control (non-data) frame: handshake,
/// batch markers and teardown between a coordinator and a node.
pub(crate) const CTRL_MAGIC: u16 = 0xFD58;
/// Upper bound on a single length-prefixed frame a writer may produce
/// ([`write_frame`] panics past it); a reader bounds whole messages
/// ([`MAX_MESSAGE_BYTES`]).
pub const MAX_FRAME_BYTES: u64 = 1 << 26;

/// Default per-recv deadline of the coordinator's links (`chan` and
/// `tcp` alike). A peer that stays silent past the configured deadline
/// is reported as [`WireError::Timeout`] instead of hanging the run.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_millis(5000);

/// On-wire size in bytes of a word-diff message body for `mask`: the
/// 8-byte dirty mask plus one 8-byte word per set bit. This is the one
/// place the diff-size arithmetic lives — the eager/update release
/// paths and the envelope encoder all charge through it, so profiler
/// attribution and wire accounting can never drift apart.
pub(crate) fn diff_bytes(mask: u64) -> usize {
    8 + 8 * mask.count_ones() as usize
}

/// The dirty mask of a block against its twin: bit `i` is set when word
/// `i` differs bit-for-bit (so a NaN that did not change is clean) — the
/// words a `Diff` frame of the block carries.
pub(crate) fn diff_mask(cur: &[f64], twin: &[f64]) -> u64 {
    let mut mask = 0u64;
    for (i, (c, t)) in cur.iter().zip(twin).enumerate() {
        if c.to_bits() != t.to_bits() {
            mask |= 1 << i;
        }
    }
    mask
}

const KIND_PUSH: u8 = 0;
const KIND_FLUSH: u8 = 1;
const KIND_COPY: u8 = 2;
const KIND_DIFF: u8 = 3;
const KIND_STRIDED: u8 = 4;

/// Why a frame failed to decode. Every variant is a hard error: a
/// malformed frame is dropped traffic, never a best-effort apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Frame ended before a declared field.
    Truncated,
    /// First two bytes are not `WIRE_MAGIC`.
    BadMagic(u16),
    /// Version this decoder was not built for.
    BadVersion(u16),
    /// Unknown kind byte.
    BadKind(u8),
    /// A declared count disagrees with the payload that follows.
    CountMismatch(&'static str),
    /// Bytes left over after the payload — the frame lies about itself.
    TrailingBytes(usize),
    /// The frame's addresses overflow or leave the segment it is being
    /// applied to (`Shape::runs`): a well-formed frame naming memory the
    /// receiver does not have.
    OutOfSegment(&'static str),
    /// The peer node is gone: its channel hung up, its process exited, or
    /// the connection was closed (EOF) mid-conversation.
    PeerGone(u32),
    /// The peer stayed silent past the configured recv deadline.
    Timeout(u32),
    /// A length prefix that would take its message past
    /// [`MAX_MESSAGE_BYTES`] — rejected before the bytes it declares are
    /// read or buffered. Carries the length the message would reach.
    FrameTooBig(u64),
    /// Double-entry reconciliation failure at teardown: a node's
    /// `CtrlMsg::ByeStats` accounting disagrees with the coordinator's
    /// book for that node. Reports *which* counter diverged and both
    /// sides' values, so a lost or double-applied frame is attributable
    /// from the error alone.
    StatsMismatch {
        node: u32,
        counter: &'static str,
        local: u64,
        remote: u64,
    },
    /// The peer answered a batch with `CtrlMsg::Err`: it refused a frame
    /// (decode failure, oversized length prefix, addresses outside its
    /// segment). `detail` is the peer's own account.
    Rejected { node: u32, detail: String },
    /// The peer broke the control conversation: an undecodable or
    /// unexpected control frame, a wrong reply count, a bad node id.
    BadReply { node: u32, what: String },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:#06x} (want {WIRE_MAGIC:#06x})"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v} (want {WIRE_VERSION})"),
            WireError::BadKind(k) => write!(f, "unknown kind byte {k}"),
            WireError::CountMismatch(what) => write!(f, "count mismatch: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::OutOfSegment(what) => write!(f, "out of segment: {what}"),
            WireError::PeerGone(p) => write!(f, "peer node {p} gone (disconnected or exited)"),
            WireError::Timeout(p) => write!(f, "recv from node {p} timed out"),
            WireError::FrameTooBig(n) => {
                write!(f, "message of {n} bytes exceeds cap {MAX_MESSAGE_BYTES}")
            }
            WireError::StatsMismatch {
                node,
                counter,
                local,
                remote,
            } => write!(
                f,
                "node {node} {counter} counter diverged: coordinator {local} vs node {remote}"
            ),
            WireError::Rejected { detail, .. } => {
                write!(f, "envelope decode failed in transit: {detail}")
            }
            WireError::BadReply { node, what } => write!(f, "node {node}: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> Self {
        WireError::Truncated
    }
}

/// An envelope's kind and variant fields: everything but its header and
/// payload words. [`write_head`] writes it, [`WireView::parse`] reads it
/// back, and [`Shape::runs`] is the one place its geometry is read. The
/// kinds are the transfer shapes the backends produce: `Push`/`Flush`
/// the §4.2 plan payloads, `Copy`/`Diff` the default protocol's fault
/// fetches and diff merges, `Strided` a message-passing section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    Push {
        start_block: u32,
        n_blocks: u32,
    },
    Flush {
        start_block: u32,
        n_blocks: u32,
    },
    Copy {
        start_word: u64,
    },
    Diff {
        block: u64,
        mask: u64,
    },
    Strided {
        base: u64,
        run_len: u32,
        stride: u64,
        count: u32,
    },
}

impl Shape {
    pub(crate) fn kind(&self) -> u8 {
        match self {
            Shape::Push { .. } => KIND_PUSH,
            Shape::Flush { .. } => KIND_FLUSH,
            Shape::Copy { .. } => KIND_COPY,
            Shape::Diff { .. } => KIND_DIFF,
            Shape::Strided { .. } => KIND_STRIDED,
        }
    }

    /// On-wire data bytes of a frame of this shape carrying `nwords`
    /// payload words: what the simulated network carries beyond fixed
    /// headers, matching the byte counts the protocols feed `note_msg_at`
    /// (a Diff counts its 8-byte mask, exactly like the `diff_bytes`
    /// charge), so wire accounting reconciles with `NodeStats`.
    pub(crate) fn payload_bytes(&self, nwords: usize) -> u64 {
        let mask = match self {
            Shape::Diff { .. } => 8,
            _ => 0,
        };
        mask + 8 * nwords as u64
    }

    fn write(&self, out: &mut Vec<u8>) {
        match *self {
            Shape::Push {
                start_block,
                n_blocks,
            }
            | Shape::Flush {
                start_block,
                n_blocks,
            } => {
                out.extend_from_slice(&start_block.to_le_bytes());
                out.extend_from_slice(&n_blocks.to_le_bytes());
            }
            Shape::Copy { start_word } => out.extend_from_slice(&start_word.to_le_bytes()),
            Shape::Diff { block, mask } => {
                out.extend_from_slice(&block.to_le_bytes());
                out.extend_from_slice(&mask.to_le_bytes());
            }
            Shape::Strided {
                base,
                run_len,
                stride,
                count,
            } => {
                out.extend_from_slice(&base.to_le_bytes());
                out.extend_from_slice(&run_len.to_le_bytes());
                out.extend_from_slice(&stride.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
    }
}

/// The one writer: append the v1 encoding of an envelope up to its
/// payload — magic, version, kind, header `fields` (src, dst, superstep,
/// loop, array), the block list, the variant fields and the payload
/// length `nwords` — to `out`, with room reserved for the `8 * nwords`
/// payload bytes that follow.
pub(crate) fn write_head(
    out: &mut Vec<u8>,
    fields: [u32; 5],
    blocks: impl ExactSizeIterator<Item = u32>,
    shape: &Shape,
    nwords: usize,
) {
    // The fixed part, up to the block list: 29 bytes.
    let mut fixed = [0u8; 29];
    fixed[..2].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
    fixed[2..4].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    fixed[4] = shape.kind();
    for (at, f) in fixed[5..25].chunks_exact_mut(4).zip(fields) {
        at.copy_from_slice(&f.to_le_bytes());
    }
    fixed[25..].copy_from_slice(&(blocks.len() as u32).to_le_bytes());
    // The widest variant's fields and the payload length: 32 bytes.
    out.reserve(fixed.len() + 4 * blocks.len() + 32 + 8 * nwords);
    out.extend_from_slice(&fixed);
    for b in blocks {
        out.extend_from_slice(&b.to_le_bytes());
    }
    shape.write(out);
    out.extend_from_slice(&(nwords as u64).to_le_bytes());
}

/// The header of an envelope about to be posted: endpoints, the
/// (superstep, loop) and array it is attributed to, and the block range
/// `[first, first + n)` its block list names — written as a range, never
/// collected into a list.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Head {
    pub src: u32,
    pub dst: u32,
    pub ctx: (u32, u32),
    pub array: u32,
    pub first: u32,
    pub n: u32,
}

/// Encode the envelope `head` + `shape` onto the end of `out`, its
/// `nwords` payload words gathered straight from `mem` along `runs` (the
/// shape's geometry in `mem`, already checked): the send side's frame,
/// built where it will travel from.
pub(crate) fn encode_gathered(
    out: &mut Vec<u8>,
    head: &Head,
    shape: &Shape,
    (runs, nwords): (Runs, usize),
    mem: &[f64],
) {
    let fields = [head.src, head.dst, head.ctx.0, head.ctx.1, head.array];
    write_head(out, fields, head.first..head.first + head.n, shape, nwords);
    let at = out.len();
    out.resize(at + 8 * nwords, 0);
    gather_into(&mut out[at..], runs, mem);
}

/// A frame read in place. [`WireView::parse`] is the one decoder: it
/// rejects wrong magic/version, unknown kinds, truncation, count/payload
/// disagreements and trailing bytes, copies nothing, and the view
/// applies the payload straight from the frame's bytes
/// ([`WireView::scatter`]). The frozen owned envelope's `from_bytes`
/// ([`crate::compat`]) is this parse plus a copy.
#[derive(Clone, Copy, Debug)]
pub struct WireView<'a> {
    /// src, dst, superstep, loop, array.
    pub(crate) fields: [u32; 5],
    /// The block list, `4 * n` bytes.
    pub(crate) blocks: &'a [u8],
    pub(crate) shape: Shape,
    /// The payload, `8 * nwords` bytes, at the end of the frame.
    pub(crate) words: &'a [u8],
}

impl<'a> WireView<'a> {
    /// Validate a v1 frame and view it. Total: every field is read
    /// through a bounds-checked cursor, and a declared length is checked
    /// against what is left before anything trusts it.
    pub fn parse(frame: &'a [u8]) -> Result<WireView<'a>, WireError> {
        let mut c = Cursor::new(frame);
        let magic = c.u16()?;
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = c.u16()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = c.u8()?;
        let fields = [c.u32()?, c.u32()?, c.u32()?, c.u32()?, c.u32()?];
        let nblocks = c.u32()? as usize;
        let blocks = c.take(nblocks.checked_mul(4).ok_or(WireError::Truncated)?)?;
        let shape = match kind {
            KIND_PUSH | KIND_FLUSH => {
                let (start_block, n_blocks) = (c.u32()?, c.u32()?);
                if n_blocks as usize != nblocks {
                    return Err(WireError::CountMismatch("n_blocks vs header block list"));
                }
                if kind == KIND_PUSH {
                    Shape::Push {
                        start_block,
                        n_blocks,
                    }
                } else {
                    Shape::Flush {
                        start_block,
                        n_blocks,
                    }
                }
            }
            KIND_COPY => Shape::Copy {
                start_word: c.u64()?,
            },
            KIND_DIFF => Shape::Diff {
                block: c.u64()?,
                mask: c.u64()?,
            },
            KIND_STRIDED => Shape::Strided {
                base: c.u64()?,
                run_len: c.u32()?,
                stride: c.u64()?,
                count: c.u32()?,
            },
            k => return Err(WireError::BadKind(k)),
        };
        // A lying payload length fails here, before anything is sized by it.
        let nwords = usize::try_from(c.u64()?).map_err(|_| WireError::Truncated)?;
        let words = c.take(nwords.checked_mul(8).ok_or(WireError::Truncated)?)?;
        match shape {
            Shape::Diff { mask, .. } if nwords != mask.count_ones() as usize => {
                return Err(WireError::CountMismatch("diff mask popcount vs payload"));
            }
            Shape::Strided { run_len, count, .. }
                if nwords != run_len as usize * count as usize =>
            {
                return Err(WireError::CountMismatch("run_len*count vs payload"));
            }
            _ => {}
        }
        if c.remaining() != 0 {
            return Err(WireError::TrailingBytes(c.remaining()));
        }
        Ok(WireView {
            fields,
            blocks,
            shape,
            words,
        })
    }

    pub(crate) fn kind(&self) -> u8 {
        self.shape.kind()
    }

    /// [`Shape::payload_bytes`] of the frame.
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.shape.payload_bytes(self.nwords())
    }

    fn nwords(&self) -> usize {
        self.words.len() / 8
    }

    /// The word runs the frame's payload covers in a segment of
    /// `seg_words` words ([`Shape::runs`]).
    pub(crate) fn runs(&self, wpb: usize, seg_words: usize) -> Result<Runs, WireError> {
        self.shape.runs(self.nwords(), wpb, seg_words)
    }

    /// Where the payload starts in the frame parsed: the worker
    /// re-gathers its mirror into the bytes from here on.
    pub(crate) fn words_at(&self, frame: &[u8]) -> usize {
        frame.len() - self.words.len()
    }

    /// Store the payload, straight from the frame's bytes, into the words
    /// of `mem` the frame names — the apply side, for shard memory and
    /// the worker mirror alike. Nothing is written unless every run lies
    /// inside `mem`.
    pub fn scatter(&self, mem: &mut [f64], wpb: usize) -> Result<(), WireError> {
        let mut rest = self.words;
        for (start, len) in self.runs(wpb, mem.len())? {
            let (run, tail) = rest.split_at(8 * len);
            for (m, w) in mem[start..start + len].iter_mut().zip(run.chunks_exact(8)) {
                *m = f64::from_bits(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
            }
            rest = tail;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Geometry: which memory words an envelope reads and writes
// ----------------------------------------------------------------------

/// The `(start word, length)` runs an envelope covers, in payload order
/// (see [`Shape::runs`]). Every run is non-empty and already checked
/// to lie inside the segment.
#[derive(Clone, Debug)]
pub(crate) struct Runs(RunsKind);

#[derive(Clone, Debug)]
enum RunsKind {
    /// `left` runs of `run_len` words, the next one at `next`.
    Strided {
        next: usize,
        run_len: usize,
        stride: usize,
        left: usize,
    },
    /// One run per maximal group of adjacent set bits still in `mask`.
    Masked { base: usize, mask: u64 },
}

impl Iterator for Runs {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        match &mut self.0 {
            RunsKind::Strided {
                next,
                run_len,
                stride,
                left,
            } => {
                if *left == 0 {
                    return None;
                }
                let run = (*next, *run_len);
                *left -= 1;
                // `runs` bounded the last run's end, so only the step past
                // it can wrap — and that value is never yielded.
                *next = next.wrapping_add(*stride);
                Some(run)
            }
            RunsKind::Masked { base, mask } => {
                if *mask == 0 {
                    return None;
                }
                let lo = mask.trailing_zeros();
                let len = (*mask >> lo).trailing_ones();
                *mask &= !(u64::MAX >> (64 - len) << lo);
                Some((*base + lo as usize, len as usize))
            }
        }
    }
}

impl Shape {
    /// The word runs an envelope of this shape with `nwords` payload
    /// words reads (the send side's gather) and writes (the apply) in a
    /// segment of `seg_words` words with `wpb` words per block, in
    /// payload order. This is the one place an envelope's geometry is
    /// interpreted; all address arithmetic is checked, so a frame naming
    /// memory outside the segment is a typed error before anything is
    /// touched or allocated. The runs always cover exactly `nwords`
    /// words: the payload sets the length of the contiguous kinds and
    /// must match the declared shape of the others.
    pub(crate) fn runs(
        &self,
        nwords: usize,
        wpb: usize,
        seg_words: usize,
    ) -> Result<Runs, WireError> {
        use WireError::OutOfSegment;
        let word = |w: u64, what| usize::try_from(w).map_err(|_| OutOfSegment(what));
        let block = |b: usize, what| b.checked_mul(wpb).ok_or(OutOfSegment(what));
        let (base, run_len, stride, count) = match *self {
            // `n_blocks` is attribution; the payload sets the length.
            Shape::Push { start_block, .. } | Shape::Flush { start_block, .. } => {
                (block(start_block as usize, "start_block")?, nwords, 0, 1)
            }
            Shape::Copy { start_word } => (word(start_word, "start_word")?, nwords, 0, 1),
            Shape::Strided {
                base,
                run_len,
                stride,
                count,
            } => (
                word(base, "strided base")?,
                run_len as usize,
                word(stride, "strided stride")?,
                count as usize,
            ),
            Shape::Diff { block: b, mask } => {
                let base = block(word(b, "diff block")?, "diff block")?;
                let span = 64 - mask.leading_zeros() as usize;
                if span > wpb {
                    return Err(OutOfSegment("diff mask bit past the block"));
                }
                if base.checked_add(span).is_none_or(|end| end > seg_words) {
                    return Err(OutOfSegment("diff block past the segment"));
                }
                if nwords != mask.count_ones() as usize {
                    return Err(WireError::CountMismatch("diff mask popcount vs payload"));
                }
                return Ok(Runs(RunsKind::Masked { base, mask }));
            }
        };
        let covered = count
            .checked_mul(run_len)
            .ok_or(OutOfSegment("count * run_len"))?;
        if covered != nwords {
            return Err(WireError::CountMismatch("payload vs geometry"));
        }
        if covered > 0 {
            (count - 1)
                .checked_mul(stride)
                .and_then(|off| off.checked_add(base)?.checked_add(run_len))
                .filter(|&end| end <= seg_words)
                .ok_or(OutOfSegment("last run ends past the segment"))?;
        }
        Ok(Runs(RunsKind::Strided {
            next: base,
            run_len,
            stride,
            left: if covered > 0 { count } else { 0 },
        }))
    }
}

/// Write the words of `mem` that `runs` name, in payload order, into
/// `out` as little-endian `u64`s — the send side's copy-out of the source
/// shard and the worker's read-back from its mirror, both straight into
/// frame bytes. `out` is exactly the runs' words long.
pub(crate) fn gather_into(out: &mut [u8], runs: Runs, mem: &[f64]) {
    let mut rest = out;
    for (start, len) in runs {
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(8 * len);
        for (b, m) in run.chunks_exact_mut(8).zip(&mem[start..start + len]) {
            b.copy_from_slice(&m.to_bits().to_le_bytes());
        }
        rest = tail;
    }
}

// ----------------------------------------------------------------------
// Length-prefixed framing: how byte-stream transports carry frames
// ----------------------------------------------------------------------

/// Append `frame` to `out` as a length-prefixed record: a `u32` LE byte
/// count followed by the frame bytes; [`MessageBuf`] reads them back.
///
/// Panics if the frame exceeds [`MAX_FRAME_BYTES`] — a frame that large
/// is a caller bug, not traffic.
pub fn write_frame(out: &mut Vec<u8>, frame: &[u8]) {
    assert!(
        frame.len() as u64 <= MAX_FRAME_BYTES,
        "frame of {} bytes exceeds MAX_FRAME_BYTES",
        frame.len()
    );
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(frame);
}

/// Bytes of a batch's `CtrlMsg::Batch { n }` marker with its length
/// prefix, and where its `n` sits.
pub(crate) const MARKER_LEN: usize = 4 + 9;
const MARKER_N: usize = 4 + 5;

/// A batch of frames in one buffer: the `Batch{n}` marker, then each
/// frame behind its length prefix ([`write_frame`]) — exactly the bytes a
/// link writes for the batch. Frames are appended in place (an encoder
/// writes straight into the buffer) and the marker's `n` is kept current,
/// so the buffer is always one whole message. `clear` keeps the capacity:
/// one buffer serves batch after batch.
#[derive(Debug)]
pub struct FrameBatch {
    bytes: Vec<u8>,
}

impl Default for FrameBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameBatch {
    pub fn new() -> Self {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &CtrlMsg::Batch { n: 0 }.to_bytes());
        debug_assert_eq!(bytes.len(), MARKER_LEN);
        FrameBatch { bytes }
    }

    /// The marker's `n`.
    pub(crate) fn len(&self) -> usize {
        let n = &self.bytes[MARKER_N..MARKER_LEN];
        u32::from_le_bytes(n.try_into().expect("the marker's 4-byte n")) as usize
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.bytes.len() == MARKER_LEN
    }

    /// The frames, in push order.
    pub(crate) fn frames(&self) -> Records<&[u8]> {
        Records(&self.bytes[MARKER_LEN..])
    }

    pub(crate) fn frames_mut(&mut self) -> Records<&mut [u8]> {
        Records(&mut self.bytes[MARKER_LEN..])
    }

    /// The batch as a link writes it: marker, then every frame behind
    /// its length prefix.
    pub(crate) fn image(&self) -> &[u8] {
        &self.bytes
    }

    /// Bytes of the frames themselves, prefixes and marker excluded.
    pub(crate) fn frame_bytes(&self) -> usize {
        self.bytes.len() - MARKER_LEN - 4 * self.len()
    }

    /// Append a copy of `frame`.
    pub fn push(&mut self, frame: &[u8]) {
        self.encode(|out| out.extend_from_slice(frame));
    }

    /// Append the frame `write` encodes onto the end of the buffer it is
    /// handed. Panics past [`MAX_FRAME_BYTES`], like [`write_frame`].
    pub(crate) fn encode(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let at = self.bytes.len();
        self.bytes.extend_from_slice(&[0; 4]);
        write(&mut self.bytes);
        let len = self.bytes.len() - at - 4;
        assert!(
            len as u64 <= MAX_FRAME_BYTES,
            "frame of {len} bytes exceeds MAX_FRAME_BYTES"
        );
        self.bytes[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
        self.set_n(self.len() + 1);
    }

    fn set_n(&mut self, n: usize) {
        self.bytes[MARKER_N..MARKER_LEN].copy_from_slice(&(n as u32).to_le_bytes());
    }

    /// Drop every frame, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.bytes.truncate(MARKER_LEN);
        self.set_n(0);
    }

    /// Make room for one more frame of `len` bytes: the buffer doubles
    /// up to `ceiling` bytes, and past it grows to exactly what its
    /// frames need — never to twice a batch, as an ordinary push could.
    pub(crate) fn reserve_frame(&mut self, len: usize, ceiling: usize) {
        let (need, cap) = (self.bytes.len() + 4 + len, self.bytes.capacity());
        if need > cap {
            let grown = if need <= ceiling {
                need.max((2 * cap).min(ceiling))
            } else {
                need
            };
            self.bytes.reserve_exact(grown - self.bytes.len());
        }
    }

    /// Heap bytes held.
    pub(crate) fn capacity(&self) -> usize {
        self.bytes.capacity()
    }
}

/// The largest message a link reads. A batch is written once its frames
/// reach [`FLUSH_WINDOW_BYTES`]: less than a window, the frame that
/// crossed it (at most [`MAX_FRAME_BYTES`]), and prefixes under an eighth
/// of a window (a frame a worker accepts is at least 45 bytes).
pub const MAX_MESSAGE_BYTES: usize = MAX_FRAME_BYTES as usize + 2 * FLUSH_WINDOW_BYTES;

/// One message off a link — a lone control frame, or a `Batch{n}` marker
/// and its `n` frames — in one buffer reused message after message, and
/// lent out mutably: the worker applies a batch in these bytes and echoes
/// them back. Every length prefix is checked against [`MAX_MESSAGE_BYTES`]
/// before the bytes it declares are asked for. A link is half-duplex (one
/// batch in flight, its echo read before the next write), so a byte that
/// arrives past a batch is a [`WireError::BadReply`].
#[derive(Default)]
pub struct MessageBuf {
    /// `bytes[..filled]` came off the link; the rest is room for reads.
    bytes: Vec<u8>,
    filled: usize,
    /// The first record not yet whole starts at `next`, and the message
    /// owes `owed` records from there: `None` until its first record is
    /// whole (a `Batch{n}` marker owes `n`, a control frame nothing).
    next: usize,
    owed: Option<u32>,
}

impl MessageBuf {
    /// Read the next message from `peer`, whole: `read` fills the front of
    /// the room it is lent and returns how many bytes it wrote.
    pub fn read(
        &mut self,
        peer: u32,
        mut read: impl FnMut(&mut [u8]) -> Result<usize, WireError>,
    ) -> Result<&mut [u8], WireError> {
        self.clear();
        loop {
            let missing = self.missing(peer)?;
            if missing == 0 {
                return Ok(self.message());
            }
            let room = self.room(missing);
            let n = read(room)?.min(room.len());
            self.filled += n;
        }
    }

    /// The message read last, as it now stands.
    pub fn message(&mut self) -> &mut [u8] {
        &mut self.bytes[..self.filled]
    }

    fn clear(&mut self) {
        (self.filled, self.next, self.owed) = (0, 0, None);
    }

    /// Bytes the message lacks at least (0: whole), walking the records
    /// that became whole since the last call.
    fn missing(&mut self, peer: u32) -> Result<usize, WireError> {
        while self.owed != Some(0) {
            let head = self.next + 4;
            let len = match self.bytes[..self.filled].get(self.next..head) {
                Some(prefix) => u32::from_le_bytes(prefix.try_into().expect("4-byte prefix")),
                None => 0,
            };
            let end = head as u64 + len as u64;
            if end > MAX_MESSAGE_BYTES as u64 {
                return Err(WireError::FrameTooBig(end));
            }
            let end = end as usize;
            if end > self.filled {
                return Ok(end - self.filled);
            }
            self.owed = Some(match self.owed {
                Some(owed) => owed - 1,
                None => match CtrlMsg::from_bytes(&self.bytes[head..end]) {
                    Ok(CtrlMsg::Batch { n }) => n,
                    _ => 0,
                },
            });
            self.next = end;
        }
        match self.filled - self.next {
            0 => Ok(0),
            past => Err(WireError::BadReply {
                node: peer,
                what: format!("{past} bytes past the end of a message"),
            }),
        }
    }

    /// Room for `missing` more bytes, the buffer doubling up to the cap
    /// from two windows, which hold a batch of small frames whole. A first
    /// record is read exactly: it may be a control frame the coordinator
    /// follows at once (`HelloAck`, then the first batch). Behind a
    /// batch's marker the rest is read ahead.
    fn room(&mut self, missing: usize) -> &mut [u8] {
        let need = self.filled + missing;
        if self.bytes.len() < need {
            let grown = (2 * self.bytes.len())
                .clamp(2 * FLUSH_WINDOW_BYTES, MAX_MESSAGE_BYTES)
                .max(need);
            self.bytes.reserve_exact(grown - self.bytes.len());
            self.bytes.resize(grown, 0);
        }
        let end = if self.owed.is_some() {
            self.bytes.len()
        } else {
            need
        };
        &mut self.bytes[self.filled..end]
    }

    /// Take `image`, a memory link's message, as the buffer itself — read
    /// in place, never copied — and check it is exactly one message.
    pub(crate) fn adopt(&mut self, image: Vec<u8>, peer: u32) -> Result<&mut [u8], WireError> {
        self.clear();
        (self.filled, self.bytes) = (image.len(), image);
        match self.missing(peer)? {
            0 => Ok(self.message()),
            short => Err(WireError::BadReply {
                node: peer,
                what: format!("a message {short} bytes short"),
            }),
        }
    }

    /// The buffer, cut to the message read last; the reader starts empty.
    pub(crate) fn take_message(&mut self) -> Vec<u8> {
        let mut bytes = std::mem::take(&mut self.bytes);
        bytes.truncate(self.filled);
        self.clear();
        bytes
    }
}

/// The length-prefixed records of a message, in order.
pub(crate) struct Records<B>(pub(crate) B);

impl<'a> Iterator for Records<&'a [u8]> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let len = u32::from_le_bytes(self.0.get(..4)?.try_into().ok()?) as usize;
        let (record, rest) = self.0[4..].split_at(len.min(self.0.len() - 4));
        self.0 = rest;
        Some(record)
    }
}

impl<'a> Iterator for Records<&'a mut [u8]> {
    type Item = &'a mut [u8];

    fn next(&mut self) -> Option<&'a mut [u8]> {
        let len = u32::from_le_bytes(self.0.get(..4)?.try_into().ok()?) as usize;
        let body = &mut std::mem::take(&mut self.0)[4..];
        let (record, rest) = body.split_at_mut(len.min(body.len()));
        self.0 = rest;
        Some(record)
    }
}

// ----------------------------------------------------------------------
// Control messages: coordinator ⇄ node-process handshake and teardown
// ----------------------------------------------------------------------

const CTRL_HELLO: u8 = 0;
const CTRL_HELLO_ACK: u8 = 1;
const CTRL_BATCH: u8 = 2;
const CTRL_BYE: u8 = 3;
const CTRL_BYE_STATS: u8 = 4;
const CTRL_ERR: u8 = 5;
/// Cap on an error detail string — a lying length here must not allocate.
const CTRL_MAX_DETAIL: usize = 64 * 1024;
/// Cap on a `ByeStats` metrics blob: a worker's telemetry table has a
/// fixed shape, so no honest blob is longer than a full one.
const CTRL_MAX_METRICS: usize = fgdsm_tempest::metrics::METRICS_BLOB_MAX;

/// Control frames framing the conversation between the coordinator and
/// a node ([`crate::node`]), over either link. Same encoding discipline as
/// a data frame — [`CTRL_MAGIC`] + version + kind + fields, total decode,
/// trailing bytes rejected — under a distinct magic so a data frame can
/// never be mistaken for control traffic.
///
/// Conversation shape (per connection):
///
/// ```text
/// node → coord   Hello { node, version }
/// coord → node   HelloAck { nprocs, wpb, seg_words }   (shard geometry)
/// coord → node   Batch { n } + n data frames           (per flush)
/// node → coord   Batch { n } + the n frames, re-gathered from its mirror
///                                                      (or Err { detail })
/// coord → node   Bye
/// node → coord   ByeStats { frames, payload_bytes, metrics }
/// ```
///
/// Control frames reuse [`WIRE_VERSION`] and are only ever exchanged
/// between a coordinator and the workers (threads, or the `fgdsm-node`
/// binary) of the same build — there is no cross-version control peer,
/// so extending `ByeStats` (the metrics blob) rides the existing version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CtrlMsg {
    /// Node introduces itself after connecting.
    Hello { node: u32, version: u16 },
    /// Coordinator accepts and ships the shard geometry the node's
    /// mirror store needs (words per block, segment words).
    HelloAck {
        nprocs: u32,
        wpb: u32,
        seg_words: u64,
    },
    /// `n` data frames follow this control frame.
    Batch { n: u32 },
    /// Orderly teardown request.
    Bye,
    /// Node's final accounting, confirming teardown. `metrics` is the
    /// node's serialized telemetry table
    /// (`fgdsm_tempest::metrics::Telemetry::to_bytes`) — empty
    /// when wall-clock telemetry is disabled.
    ByeStats {
        frames: u64,
        payload_bytes: u64,
        metrics: Vec<u8>,
    },
    /// The node rejected traffic (decode failure, oversized frame…);
    /// the connection is dead after this.
    Err { detail: String },
}

impl CtrlMsg {
    fn kind(&self) -> u8 {
        match self {
            CtrlMsg::Hello { .. } => CTRL_HELLO,
            CtrlMsg::HelloAck { .. } => CTRL_HELLO_ACK,
            CtrlMsg::Batch { .. } => CTRL_BATCH,
            CtrlMsg::Bye => CTRL_BYE,
            CtrlMsg::ByeStats { .. } => CTRL_BYE_STATS,
            CtrlMsg::Err { .. } => CTRL_ERR,
        }
    }

    /// The encoding as a fresh buffer.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&CTRL_MAGIC.to_le_bytes());
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.push(self.kind());
        match self {
            CtrlMsg::Hello { node, version } => {
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
            }
            CtrlMsg::HelloAck {
                nprocs,
                wpb,
                seg_words,
            } => {
                out.extend_from_slice(&nprocs.to_le_bytes());
                out.extend_from_slice(&wpb.to_le_bytes());
                out.extend_from_slice(&seg_words.to_le_bytes());
            }
            CtrlMsg::Batch { n } => out.extend_from_slice(&n.to_le_bytes()),
            CtrlMsg::Bye => {}
            CtrlMsg::ByeStats {
                frames,
                payload_bytes,
                metrics,
            } => {
                assert!(
                    metrics.len() <= CTRL_MAX_METRICS,
                    "metrics blob of {} bytes exceeds cap",
                    metrics.len()
                );
                out.extend_from_slice(&frames.to_le_bytes());
                out.extend_from_slice(&payload_bytes.to_le_bytes());
                out.extend_from_slice(&(metrics.len() as u32).to_le_bytes());
                out.extend_from_slice(metrics);
            }
            CtrlMsg::Err { detail } => {
                let bytes = detail.as_bytes();
                let n = bytes.len().min(CTRL_MAX_DETAIL);
                out.extend_from_slice(&(n as u32).to_le_bytes());
                out.extend_from_slice(&bytes[..n]);
            }
        }
        out
    }

    /// Decode and validate a control frame — same paranoia as
    /// [`WireView::parse`].
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<CtrlMsg, WireError> {
        let mut c = Cursor::new(bytes);
        let magic = c.u16()?;
        if magic != CTRL_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = c.u16()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = c.u8()?;
        let msg = match kind {
            CTRL_HELLO => CtrlMsg::Hello {
                node: c.u32()?,
                version: c.u16()?,
            },
            CTRL_HELLO_ACK => CtrlMsg::HelloAck {
                nprocs: c.u32()?,
                wpb: c.u32()?,
                seg_words: c.u64()?,
            },
            CTRL_BATCH => CtrlMsg::Batch { n: c.u32()? },
            CTRL_BYE => CtrlMsg::Bye,
            CTRL_BYE_STATS => {
                let frames = c.u64()?;
                let payload_bytes = c.u64()?;
                let n = c.u32()? as usize;
                if n > CTRL_MAX_METRICS {
                    return Err(WireError::CountMismatch("bye-stats metrics length"));
                }
                let metrics = c.take(n)?.to_vec();
                CtrlMsg::ByeStats {
                    frames,
                    payload_bytes,
                    metrics,
                }
            }
            CTRL_ERR => {
                let n = c.u32()? as usize;
                if n > CTRL_MAX_DETAIL {
                    return Err(WireError::CountMismatch("err detail length"));
                }
                let raw = c.take(n)?;
                let detail = String::from_utf8(raw.to_vec())
                    .map_err(|_| WireError::CountMismatch("err detail utf8"))?;
                CtrlMsg::Err { detail }
            }
            k => return Err(WireError::BadKind(k)),
        };
        if c.remaining() != 0 {
            return Err(WireError::TrailingBytes(c.remaining()));
        }
        Ok(msg)
    }
}

/// One remote process's end-of-run accounting, as delivered in its
/// `CtrlMsg::ByeStats`: the counters to reconcile against the
/// coordinator's book plus the node's serialized telemetry table
/// (empty when telemetry is off).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemoteReport {
    pub node: u32,
    pub frames: u64,
    pub payload_bytes: u64,
    pub metrics: Vec<u8>,
}

/// Double-entry reconciliation of one node's counters against the
/// coordinator's per-node book. Reports the *first* diverging counter as
/// a typed [`WireError::StatsMismatch`] naming the node, the counter and
/// both values — never a bare "mismatch" panic.
pub(crate) fn reconcile_stats(
    node: u32,
    local_frames: u64,
    local_payload: u64,
    remote: &RemoteReport,
) -> Result<(), WireError> {
    if local_frames != remote.frames {
        return Err(WireError::StatsMismatch {
            node,
            counter: "frames",
            local: local_frames,
            remote: remote.frames,
        });
    }
    if local_payload != remote.payload_bytes {
        return Err(WireError::StatsMismatch {
            node,
            counter: "payload_bytes",
            local: local_payload,
            remote: remote.payload_bytes,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{WireHeader, WireMsg};

    fn push_msg() -> WireMsg {
        WireMsg::Push {
            hdr: WireHeader {
                src: 1,
                dst: 2,
                superstep: 3,
                loop_id: 4,
                array: 5,
                blocks: vec![7, 8],
            },
            start_block: 7,
            n_blocks: 2,
            words: vec![1.5f64.to_bits(), f64::NAN.to_bits()],
        }
    }

    /// Pins the v1 layout byte for byte: any accidental reordering,
    /// widening or endianness change of the header breaks this test,
    /// which is the cue to bump `WIRE_VERSION` instead.
    #[test]
    fn golden_v1_push_frame() {
        let bytes = push_msg().to_bytes();
        let mut want = Vec::new();
        want.extend_from_slice(&0xFD57u16.to_le_bytes()); // magic
        want.extend_from_slice(&1u16.to_le_bytes()); // version
        want.push(0); // kind = Push
        for f in [1u32, 2, 3, 4, 5] {
            want.extend_from_slice(&f.to_le_bytes()); // src dst step loop array
        }
        want.extend_from_slice(&2u32.to_le_bytes()); // block-list len
        want.extend_from_slice(&7u32.to_le_bytes());
        want.extend_from_slice(&8u32.to_le_bytes());
        want.extend_from_slice(&7u32.to_le_bytes()); // start_block
        want.extend_from_slice(&2u32.to_le_bytes()); // n_blocks
        want.extend_from_slice(&2u64.to_le_bytes()); // payload words
        want.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        want.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(bytes, want);
    }

    #[test]
    fn round_trip_every_variant() {
        let hdr = WireHeader::for_blocks(0, 3, (9, 2), u32::MAX, 12, 1);
        let msgs = vec![
            push_msg(),
            WireMsg::Flush {
                hdr: hdr.clone(),
                start_block: 12,
                n_blocks: 1,
                words: vec![0, u64::MAX],
            },
            WireMsg::Copy {
                hdr: hdr.clone(),
                start_word: 96,
                words: vec![42],
            },
            WireMsg::Diff {
                hdr: hdr.clone(),
                block: 12,
                mask: 0b101,
                words: vec![1, 2],
            },
            WireMsg::Strided {
                hdr,
                base: 640,
                run_len: 2,
                stride: 10,
                count: 3,
                words: vec![1, 2, 3, 4, 5, 6],
            },
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            let kind = bytes[4];
            assert_eq!(WireMsg::from_bytes(&bytes).unwrap(), m, "kind {kind}");
            let view = WireView::parse(&bytes).unwrap();
            let bound = 61 + view.blocks.len() + 8 * m.words().len();
            assert!(bytes.len() <= bound, "kind {kind}: to_bytes regrew");
        }
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        let good = push_msg().to_bytes();
        assert_eq!(WireMsg::from_bytes(&[]), Err(WireError::Truncated));

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            WireMsg::from_bytes(&bad),
            Err(WireError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[2] = 0x7F; // future version
        assert_eq!(WireMsg::from_bytes(&bad), Err(WireError::BadVersion(0x7F)));

        let mut bad = good.clone();
        bad[4] = 200;
        assert_eq!(WireMsg::from_bytes(&bad), Err(WireError::BadKind(200)));

        let mut bad = good.clone();
        bad.truncate(bad.len() - 1);
        assert_eq!(WireMsg::from_bytes(&bad), Err(WireError::Truncated));

        let mut bad = good.clone();
        bad.push(0);
        assert_eq!(WireMsg::from_bytes(&bad), Err(WireError::TrailingBytes(1)));

        // Diff whose mask popcount disagrees with its payload.
        let diff = WireMsg::Diff {
            hdr: WireHeader::for_blocks(0, 1, (0, 0), 0, 0, 1),
            block: 0,
            mask: 0b11,
            words: vec![1, 2],
        };
        let mut bytes = diff.to_bytes();
        // mask sits 8 bytes before the payload-length word.
        let mask_off = bytes.len() - 2 * 8 - 8 - 8;
        bytes[mask_off] = 0b111;
        assert_eq!(
            WireMsg::from_bytes(&bytes),
            Err(WireError::CountMismatch("diff mask popcount vs payload"))
        );
    }

    /// Test envelopes `0 → 1` with consistent headers; `words` payload
    /// words each (zeros for the blank ones `gather` fills).
    fn blocks(flush: bool, start_block: u32, n_blocks: u32, words: usize) -> WireMsg {
        let hdr = WireHeader::for_blocks(0, 1, (9, 2), 4, start_block as usize, n_blocks as usize);
        let words = vec![0; words];
        if flush {
            WireMsg::Flush {
                hdr,
                start_block,
                n_blocks,
                words,
            }
        } else {
            WireMsg::Push {
                hdr,
                start_block,
                n_blocks,
                words,
            }
        }
    }
    fn copy(start_word: u64, words: usize) -> WireMsg {
        WireMsg::Copy {
            hdr: WireHeader::for_blocks(0, 1, (9, 2), u32::MAX, 0, 1),
            start_word,
            words: vec![0; words],
        }
    }
    fn diff(block: u64, mask: u64) -> WireMsg {
        WireMsg::Diff {
            hdr: WireHeader::for_blocks(0, 1, (9, 2), u32::MAX, 0, 1),
            block,
            mask,
            words: vec![0; mask.count_ones() as usize],
        }
    }
    fn strided(base: u64, run_len: u32, stride: u64, count: u32) -> WireMsg {
        WireMsg::Strided {
            hdr: WireHeader::for_blocks(0, 1, (9, 2), u32::MAX, 0, 1),
            base,
            run_len,
            stride,
            count,
            words: vec![0; (run_len * count) as usize],
        }
    }

    /// The one pipeline, end to end, per kind and per memory type, over
    /// a 16-words-per-block, 256-word segment: a frame encoded straight
    /// from a seeded memory (`encode_gathered`) is byte for byte the
    /// owned envelope's encoding, carries exactly the words `runs` names
    /// in payload order, and its view's `scatter` into a zeroed memory
    /// writes those words and no other; re-gathering that memory over the
    /// frame's payload in place (the worker's echo) leaves it unchanged.
    fn pipeline_round_trip() {
        let (wpb, seg) = (16, 256);
        // Distinct non-zero bit patterns (NaNs included for f64).
        let src: Vec<f64> = (0..seg as u64)
            .map(|i| f64::from_bits((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1))
            .collect();
        for msg in [
            blocks(false, 3, 2, 32),
            blocks(true, 15, 1, 16),
            copy(250, 6),
            diff(15, 0b1000_0000_0110_1101),
            strided(5, 3, 40, 6),
            strided(7, 4, 0, 1),
        ] {
            let blank = msg.to_bytes();
            let blank = WireView::parse(&blank).unwrap();
            let (kind, shape, nwords) = (blank.kind(), blank.shape, blank.nwords());
            let runs = shape.runs(nwords, wpb, seg).unwrap();
            let named: Vec<usize> = runs.clone().flat_map(|(s, len)| s..s + len).collect();
            assert!(!named.is_empty(), "kind {kind}");
            let f = blank.fields;
            let head = Head {
                src: f[0],
                dst: f[1],
                ctx: (f[2], f[3]),
                array: f[4],
                first: u32::from_le_bytes(blank.blocks[..4].try_into().unwrap()),
                n: blank.blocks.len() as u32 / 4,
            };
            let mut frame = Vec::new();
            encode_gathered(&mut frame, &head, &shape, (runs.clone(), nwords), &src);
            let back = WireMsg::from_bytes(&frame).unwrap();
            let in_order: Vec<u64> = named.iter().map(|&a| src[a].to_bits()).collect();
            assert_eq!(back.words(), in_order, "kind {kind}: payload order");
            let mut owned = msg.clone();
            let (WireMsg::Push { words, .. }
            | WireMsg::Flush { words, .. }
            | WireMsg::Copy { words, .. }
            | WireMsg::Diff { words, .. }
            | WireMsg::Strided { words, .. }) = &mut owned;
            *words = in_order;
            assert_eq!(frame, owned.to_bytes(), "kind {kind}: one writer");
            let mut dst = vec![0.0; seg];
            let view = WireView::parse(&frame).unwrap();
            view.scatter(&mut dst, wpb).unwrap();
            for a in 0..seg {
                let want = if named.contains(&a) {
                    src[a].to_bits()
                } else {
                    0
                };
                assert_eq!(dst[a].to_bits(), want, "kind {kind}: word {a}");
            }
            let at = view.words_at(&frame);
            let sent = frame.clone();
            gather_into(&mut frame[at..], runs, &dst);
            assert_eq!(frame, sent, "kind {kind}: the echo is the frame");
        }
    }

    #[test]
    fn gather_encode_decode_scatter_is_exact_for_shard_and_mirror_memory() {
        pipeline_round_trip();
    }

    /// The worker mirror must not trust the peer's addresses: frames that
    /// decode fine but name memory outside the segment (or overflow on
    /// the way there) are typed errors, and nothing is written.
    #[test]
    fn scatter_rejects_addresses_outside_the_segment() {
        let (wpb, seg) = (16usize, 256usize);
        for msg in [
            copy(1 << 40, 1), // the 8 TiB frame: one well-formed word
            copy(u64::MAX, 2),
            blocks(false, u32::MAX, 1, 16), // start_block far past the end
            blocks(true, 15, 2, 32),        // starts inside, ends a block past
            strided(0, 2, 100, 4),          // base + count * stride past the end
            strided(8, 1, u64::MAX, 3),     // ... overflowing on the way
            diff(16, 1),                    // a Diff block past the end
            diff(3, 1 << 16),               // a mask bit past its block
        ] {
            // Each one survives the codec: the lie is in the addresses.
            let bytes = msg.to_bytes();
            assert_eq!(WireMsg::from_bytes(&bytes).as_ref(), Ok(&msg));
            let mut mirror = vec![0.0; seg];
            let view = WireView::parse(&bytes).unwrap();
            assert!(
                matches!(
                    view.scatter(&mut mirror, wpb),
                    Err(WireError::OutOfSegment(_))
                ),
                "{msg:?}"
            );
            assert_eq!(mirror, vec![0.0; seg], "rejected frame wrote memory");
        }
    }

    #[test]
    fn payload_bytes_match_note_msg_accounting() {
        let payload = |m: &WireMsg| WireView::parse(&m.to_bytes()).unwrap().payload_bytes();
        assert_eq!(payload(&push_msg()), 16);
        let diff = WireMsg::Diff {
            hdr: WireHeader::for_blocks(0, 1, (0, 0), 0, 0, 1),
            block: 0,
            mask: 0b1101,
            words: vec![1, 2, 3],
        };
        assert_eq!(payload(&diff) as usize, diff_bytes(0b1101));
    }

    /// Read one message out of `stream`, `chunk` bytes a read at most; the
    /// end of the stream is a hang-up. Returns the message and the bytes
    /// the reader took.
    fn read_chunked(stream: &[u8], chunk: usize) -> (Result<Vec<u8>, WireError>, usize) {
        let (mut buf, mut at) = (MessageBuf::default(), 0);
        let got = buf.read(0, |room| {
            let n = chunk.min(room.len()).min(stream.len() - at);
            room[..n].copy_from_slice(&stream[at..at + n]);
            at += n;
            if n == 0 {
                return Err(WireError::PeerGone(0));
            }
            Ok(n)
        });
        (got.map(|m| m.to_vec()), at)
    }

    #[test]
    fn message_buf_reads_a_message_whole_across_arbitrary_splits() {
        let frames: Vec<Vec<u8>> = vec![vec![], vec![0xAB], (0u8..=255).collect()];
        let mut batch = FrameBatch::new();
        frames.iter().for_each(|f| batch.push(f));
        let mut lone = Vec::new();
        write_frame(&mut lone, &CtrlMsg::Bye.to_bytes());
        for image in [batch.image(), &lone] {
            // Worst case: the stream arrives one byte at a time.
            for chunk in [1, 5, image.len()] {
                let (got, taken) = read_chunked(image, chunk);
                assert_eq!(got.as_deref(), Ok(image), "chunk {chunk}");
                assert_eq!(taken, image.len());
            }
        }
        let records: Vec<&[u8]> = batch.frames().collect();
        assert_eq!(records, frames, "the marker, then the frames in order");
    }

    #[test]
    fn message_buf_rejects_oversized_truncated_and_trailing_bytes() {
        // A prefix past the cap fails before the bytes it declares are
        // asked for.
        let mut stream = (MAX_MESSAGE_BYTES as u32 - 3).to_le_bytes().to_vec();
        stream.extend_from_slice(&[0; 64]);
        let (got, taken) = read_chunked(&stream, 4);
        assert_eq!(
            got,
            Err(WireError::FrameTooBig(MAX_MESSAGE_BYTES as u64 + 1))
        );
        assert_eq!(taken, 4, "nothing read past the prefix");
        // A batch whose last frame never arrives waits for it: here the
        // link hangs up.
        let mut batch = FrameBatch::new();
        batch.push(&[1, 2, 3, 4]);
        let image = batch.image();
        let (got, _) = read_chunked(&image[..image.len() - 1], 3);
        assert_eq!(got, Err(WireError::PeerGone(0)));
        // A byte past the message in the same read is the peer out of step.
        let mut long = image.to_vec();
        long.push(0);
        let (got, _) = read_chunked(&long, long.len());
        assert!(
            matches!(got, Err(WireError::BadReply { node: 0, .. })),
            "{got:?}"
        );
    }

    #[test]
    fn ctrl_round_trip_and_rejects() {
        let msgs = vec![
            CtrlMsg::Hello {
                node: 3,
                version: WIRE_VERSION,
            },
            CtrlMsg::HelloAck {
                nprocs: 8,
                wpb: 4,
                seg_words: 4096,
            },
            CtrlMsg::Batch { n: 17 },
            CtrlMsg::Bye,
            CtrlMsg::ByeStats {
                frames: 9,
                payload_bytes: 1234,
                metrics: Vec::new(),
            },
            CtrlMsg::ByeStats {
                frames: 2,
                payload_bytes: 64,
                metrics: vec![0xAA; 37],
            },
            CtrlMsg::Err {
                detail: "frame length 67108865 exceeds cap".into(),
            },
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(CtrlMsg::from_bytes(&bytes).unwrap(), m);
            // Data and control magics are disjoint: each decoder rejects
            // the other's frames.
            assert!(matches!(
                WireMsg::from_bytes(&bytes),
                Err(WireError::BadMagic(CTRL_MAGIC))
            ));
            let mut trailing = m.to_bytes();
            trailing.push(0);
            assert_eq!(
                CtrlMsg::from_bytes(&trailing),
                Err(WireError::TrailingBytes(1))
            );
        }
        assert!(matches!(
            CtrlMsg::from_bytes(&push_msg().to_bytes()),
            Err(WireError::BadMagic(WIRE_MAGIC))
        ));
        assert_eq!(CtrlMsg::from_bytes(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn bye_stats_rejects_lying_metrics_length() {
        let bytes = CtrlMsg::ByeStats {
            frames: 1,
            payload_bytes: 8,
            metrics: vec![1, 2, 3],
        }
        .to_bytes();
        // Inflate the metrics length prefix past the frame end.
        let len_off = bytes.len() - 3 - 4;
        let mut bad = bytes.clone();
        bad[len_off..len_off + 4].copy_from_slice(&100u32.to_le_bytes());
        assert_eq!(CtrlMsg::from_bytes(&bad), Err(WireError::Truncated));
        // A length above the cap is rejected before any allocation.
        let mut bad = bytes;
        bad[len_off..len_off + 4].copy_from_slice(&(CTRL_MAX_METRICS as u32 + 1).to_le_bytes());
        assert_eq!(
            CtrlMsg::from_bytes(&bad),
            Err(WireError::CountMismatch("bye-stats metrics length"))
        );
        // The cap is exact: a table with every bucket of every histogram
        // occupied encodes to it and travels; one byte more does not.
        let mut full = fgdsm_tempest::Telemetry::default();
        for stage in fgdsm_tempest::Stage::ALL {
            for kind in 0..6 {
                full.record(stage, kind, 0);
                for k in 0..64 {
                    full.record(stage, kind, 1 << k);
                }
            }
        }
        let metrics = full.to_bytes();
        assert_eq!(metrics.len(), CTRL_MAX_METRICS);
        let max = CtrlMsg::ByeStats {
            frames: 1,
            payload_bytes: 8,
            metrics,
        };
        let mut over = max.to_bytes();
        assert_eq!(CtrlMsg::from_bytes(&over).as_ref(), Ok(&max));
        let len_off = over.len() - CTRL_MAX_METRICS - 4;
        over[len_off..len_off + 4].copy_from_slice(&(CTRL_MAX_METRICS as u32 + 1).to_le_bytes());
        over.push(0);
        assert_eq!(
            CtrlMsg::from_bytes(&over),
            Err(WireError::CountMismatch("bye-stats metrics length"))
        );
    }

    /// The satellite fix: reconciliation failures name the node, the
    /// diverging counter, and both sides' values.
    #[test]
    fn reconcile_stats_reports_which_counter_diverged() {
        let remote = RemoteReport {
            node: 2,
            frames: 10,
            payload_bytes: 800,
            metrics: Vec::new(),
        };
        assert_eq!(reconcile_stats(2, 10, 800, &remote), Ok(()));
        let frames_err = reconcile_stats(2, 9, 800, &remote).unwrap_err();
        assert_eq!(
            frames_err,
            WireError::StatsMismatch {
                node: 2,
                counter: "frames",
                local: 9,
                remote: 10,
            }
        );
        assert_eq!(
            frames_err.to_string(),
            "node 2 frames counter diverged: coordinator 9 vs node 10"
        );
        // Frames agreeing but payload diverging blames payload_bytes.
        assert_eq!(
            reconcile_stats(2, 10, 792, &remote),
            Err(WireError::StatsMismatch {
                node: 2,
                counter: "payload_bytes",
                local: 792,
                remote: 800,
            })
        );
    }
}
