//! Conformance bridge: replay model op sequences through the real
//! [`Dsm`] and assert the abstract model and the implementation agree.
//!
//! Model block `b` maps to the first coherence block of real page `b`
//! (RoundRobin homes: page `b` → node `b % n`, exactly the model's
//! `home(b) = b % n`). Model word `w` maps to word `w` of that block;
//! the model's version numbers are written as `f64` values, so the
//! implementation's whole-block copies, word diffs, and wire envelopes
//! all carry them faithfully. After the sequence the driver compares,
//! block by block, the real directory entry, every node's access tag,
//! and every valid copy's contents against the abstract state — on the
//! in-process fast path and on the channel-backed wire path.

use crate::absmodel::{AbsState, Mutation, Op, Proto, WORDS};
use crate::checker::ModelConfig;
use fgdsm_protocol::{
    ChanTransport, Dsm, Faults, Geometry, NodeFault, ProtocolKind, DEFAULT_RECV_TIMEOUT,
};
use fgdsm_tempest::{Access, Cluster, CostModel, HomePolicy, SegmentLayout};

fn build_dsm(
    cfg: &ModelConfig,
    wire: bool,
    faults: Faults,
    node_fault: Option<(u32, NodeFault)>,
) -> Dsm {
    let cost = CostModel::paper_dual_cpu();
    let mut layout = SegmentLayout::new(cost.words_per_page());
    // One page per model block, plus one spare page of headroom.
    layout.alloc(cost.words_per_page() * (cfg.blocks + 1));
    let kind = match cfg.proto {
        Proto::Eager => ProtocolKind::EagerInvalidate,
        Proto::Update => ProtocolKind::WriteUpdate,
    };
    let mut d = Dsm::with_protocol(
        Cluster::new(cfg.nodes, cost, &layout, HomePolicy::RoundRobin),
        kind,
    );
    if wire {
        let geom = Geometry::of(&d.cluster);
        let chan = ChanTransport::spawn(geom, DEFAULT_RECV_TIMEOUT, false, node_fault, faults);
        d.set_wire(Box::new(chan));
    }
    d.faults = faults;
    d
}

/// Real coherence-block index of model block `b`.
fn real_block(d: &Dsm, b: usize) -> usize {
    let per_page = d.cluster.words_per_page() / d.cluster.words_per_block();
    b * per_page
}

/// Replay `ops` on the abstract model and on a fresh real [`Dsm`]
/// side by side, then compare final directory, tags, and memory.
/// `wire` selects the channel-backed strict wire path; `faults` arms
/// real-engine faults (the model always runs clean, so an armed fault is
/// expected to *diverge* — callers assert `Err`). A failure the wire
/// path keeps ([`Dsm::wire_finish`]) is a divergence too.
pub fn replay_on_dsm(
    cfg: &ModelConfig,
    ops: &[Op],
    wire: bool,
    faults: Faults,
) -> Result<usize, String> {
    replay(cfg, ops, build_dsm(cfg, wire, faults, None))
}

/// [`replay_on_dsm`] on a given real [`Dsm`].
fn replay(cfg: &ModelConfig, ops: &[Op], mut d: Dsm) -> Result<usize, String> {
    let mut st = AbsState::initial(cfg.nodes, cfg.blocks);

    for (i, &op) in ops.iter().enumerate() {
        let pre = st.clone();
        st = match st.apply(cfg.proto, op, Mutation::None) {
            Ok(Some(next)) => next,
            Ok(None) => {
                return Err(format!(
                    "step {}: op `{op}` not eligible in the model",
                    i + 1
                ))
            }
            Err(e) => {
                return Err(format!(
                    "step {}: model violation during replay: {e}",
                    i + 1
                ))
            }
        };
        drive(&mut d, &pre, &st, op);
    }
    // A wire failure is kept, not thrown: the data was already scattered
    // from the frame's bytes, so only the transport's verdict (and the
    // nodes' books) can say a frame never arrived intact.
    d.wire_finish()
        .map_err(|e| format!("wire failure during replay: {e}"))?;
    compare(&d, &st, cfg)
}

/// Mirror one model op onto the real DSM.
fn drive(d: &mut Dsm, pre: &AbsState, post: &AbsState, op: Op) {
    match op {
        Op::Read { p, b } => d.read_access(p, real_block(d, b)),
        Op::Write { p, b, w, multi } => {
            let rb = real_block(d, b);
            if pre.windows[b] & (1 << p) == 0 {
                // Ordinary coherent write: take the fault the model took.
                if multi {
                    d.write_access_multi(p, rb);
                } else {
                    d.write_access_excl(p, rb);
                }
            }
            // Window-holder writes go straight to memory (the §4.2
            // point: the store itself is an ordinary store).
            let (s, _) = d.cluster.block_words(rb);
            d.cluster.node_mem_mut(p)[s + w] = post.spec[b][w] as f64;
        }
        Op::Release => d.release_barrier(),
        Op::MkWritable { o, b } => {
            let rb = real_block(d, b);
            d.mk_writable(o, rb, rb + 1);
        }
        Op::ImplicitWritable { r, b } => {
            let rb = real_block(d, b);
            d.implicit_writable(r, rb, rb + 1, true);
        }
        Op::SendRange { o, r, b } => {
            let rb = real_block(d, b);
            d.send_range(o, &[r], rb, rb + 1, true);
        }
        Op::ReadyToRecv { r } => d.ready_to_recv(r),
        Op::ImplicitInvalidate { r, b } => {
            let rb = real_block(d, b);
            d.implicit_invalidate(r, rb, rb + 1);
        }
        Op::FlushRange { f, o, b } => {
            let rb = real_block(d, b);
            d.flush_range(f, o, rb, rb + 1, true);
        }
    }
}

/// Compare the final real state against the abstract state, block by
/// block. Returns the number of block comparisons on success.
fn compare(d: &Dsm, st: &AbsState, cfg: &ModelConfig) -> Result<usize, String> {
    let mut compared = 0;
    for b in 0..st.blocks() {
        let rb = real_block(d, b);
        let real_dir = d.dir_state(rb);
        if real_dir != st.dir[b] {
            return Err(format!(
                "block {b}: directory diverged — real {real_dir:?}, model {:?}",
                st.dir[b]
            ));
        }
        let (s, _) = d.cluster.block_words(rb);
        for n in 0..cfg.nodes {
            let real_tag = d.cluster.tag(n, rb);
            if real_tag != st.tag[b][n] {
                return Err(format!(
                    "block {b}: node {n} tag diverged — real {real_tag:?}, model {:?}",
                    st.tag[b][n]
                ));
            }
            // Contents are only meaningful for valid copies (plus the
            // home, whose copy is the merge base / authoritative store).
            if real_tag == Access::Invalid && n != st.home(b) {
                continue;
            }
            for w in 0..WORDS {
                let real = d.cluster.node_mem(n)[s + w];
                let model = st.mem[b][n][w] as f64;
                if real != model {
                    return Err(format!(
                        "block {b} word {w}: node {n} contents diverged — real \
                         {real}, model version {}",
                        st.mem[b][n][w]
                    ));
                }
            }
        }
        compared += 1;
    }
    // The implementation's own invariant check runs whenever the model
    // says the sequence ended at a barrier-equivalent point: no open
    // windows, no undelivered promises, no mid-interval Multi state or
    // live twins, and no unpropagated update-protocol writes. The real
    // check is specified at barriers; mid-interval states legitimately
    // fail it.
    let quiescent = st.windows.iter().all(|&m| m == 0)
        && st.dirty.iter().all(|&m| m == 0)
        && st.pending.iter().all(|q| q.is_empty())
        && st
            .dir
            .iter()
            .all(|e| !matches!(e, fgdsm_protocol::DirState::Multi { .. }))
        && st.twin.iter().all(|per| per.iter().all(Option::is_none))
        && st.iww.iter().all(|ws| ws.iter().all(|&m| m == 0));
    if quiescent {
        d.check_consistency()
            .map_err(|e| format!("check_consistency after replay: {e}"))?;
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that dies mid-replay fails the replay, though every frame
    /// was scattered locally before it was sent and the final state
    /// matches the model.
    #[test]
    fn a_dead_node_on_the_wire_path_is_a_divergence() {
        let cfg = ModelConfig::small(Proto::Eager);
        let ops: Vec<Op> = ["read p=1 b=0", "release", "write p=1 b=0 w=0 multi=false"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let clean = build_dsm(&cfg, true, Faults::default(), None);
        replay(&cfg, &ops, clean).expect("clean wire replay must conform");
        let dead = Some((1, NodeFault::ExitAfterBatches(0)));
        let d = build_dsm(&cfg, true, Faults::default(), dead);
        let err = replay(&cfg, &ops, d).expect_err("a dead node must fail the replay");
        assert!(err.starts_with("wire failure during replay"), "{err}");
    }
}
