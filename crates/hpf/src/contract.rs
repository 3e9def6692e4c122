//! The §4.2 compiler/run-time contract as a checkable predicate.
//!
//! The optimized executor takes blocks out of directory coherence for the
//! duration of a compiler-controlled window: `mk_writable` installs an
//! exclusive owner, `implicit_writable` opens a writable window at a
//! non-owner without telling the directory, `send_range`/`ready_to_recv`
//! push data into open windows, `flush_range` returns a window-holder's
//! writes to the owner, and `implicit_invalidate` closes the window. The
//! directory stays deliberately wrong (Figure 2C–2E) — the contract is
//! what makes that safe.
//!
//! [`ContractTracker`] is that contract as executable legality rules:
//! feed it the [`CtlOp`] stream of a run and it errs on the first
//! primitive the contract forbids. The `fgdsm-model` checker uses it as
//! the guard for every candidate ctl action, so the state space it
//! explores is exactly the space of contract-legal interleavings — and a
//! seeded mutation that breaks a rule surfaces as a checker
//! counterexample rather than silent corruption.

use fgdsm_tempest::NodeId;
use std::collections::BTreeSet;

/// One contract-relevant action, in program order. Block indices are the
/// protocol's cache-block indices; ranges are `[first, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtlOp {
    /// `owner` takes the range exclusively (invalidating every copy).
    MkWritable {
        owner: NodeId,
        first: usize,
        end: usize,
    },
    /// `node` opens a writable window over the owner's range without a
    /// directory transition.
    ImplicitWritable {
        node: NodeId,
        first: usize,
        end: usize,
    },
    /// The owner pushes the range into `reader`'s open window.
    SendRange {
        owner: NodeId,
        reader: NodeId,
        first: usize,
        end: usize,
    },
    /// `node` commits to having received every pending push.
    ReadyToRecv { node: NodeId },
    /// `node` closes its window over the range, discarding its copy.
    ImplicitInvalidate {
        node: NodeId,
        first: usize,
        end: usize,
    },
    /// `writer` returns its window-copy of the owner's range.
    FlushRange {
        writer: NodeId,
        owner: NodeId,
        first: usize,
        end: usize,
    },
    /// An ordinary store by `node` to one block (the contract constrains
    /// who may write while windows are open).
    Write { node: NodeId, block: usize },
    /// A release barrier ends the interval.
    Release,
}

/// Per-block contract state.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
struct BlockState {
    /// The exclusive owner `mk_writable` installed (None until the block
    /// first comes under compiler control or a free write claims it).
    owner: Option<NodeId>,
    /// Nodes holding an open `implicit_writable` window.
    windows: u64,
    /// Window-holders that have written and not yet flushed.
    dirty: u64,
}

/// The contract as a little operational semantics: legal ops advance the
/// state, illegal ops return `Err` naming the violated rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContractTracker {
    blocks: Vec<BlockState>,
    /// Blocks with a push in flight toward each node (cleared by
    /// `ReadyToRecv`).
    pending: Vec<BTreeSet<usize>>,
}

#[inline]
fn bit(n: NodeId) -> u64 {
    debug_assert!(n < 64);
    1u64 << n
}

impl ContractTracker {
    /// A tracker over `n_blocks` blocks and `nprocs` nodes, with no
    /// owners, windows, or pending pushes.
    pub fn new(nprocs: usize, n_blocks: usize) -> Self {
        ContractTracker {
            blocks: vec![BlockState::default(); n_blocks],
            pending: vec![BTreeSet::new(); nprocs],
        }
    }

    // ---- from-parts constructors (the model derives a tracker from an
    // ---- abstract state rather than replaying history) ----

    /// Record `node` as the exclusive owner of `b`.
    pub fn set_owner(&mut self, b: usize, node: NodeId) {
        self.blocks[b].owner = Some(node);
    }

    /// Record an open window at `node` over `b`.
    pub fn open_window(&mut self, b: usize, node: NodeId) {
        self.blocks[b].windows |= bit(node);
    }

    /// Record unflushed window writes by `node` to `b`.
    pub fn mark_dirty(&mut self, b: usize, node: NodeId) {
        self.blocks[b].dirty |= bit(node);
    }

    /// Record an in-flight push of `b` toward `node`.
    pub fn add_pending(&mut self, node: NodeId, b: usize) {
        self.pending[node].insert(b);
    }

    /// Advance by one op, or report the first contract rule it violates.
    pub fn step(&mut self, op: CtlOp) -> Result<(), String> {
        match op {
            CtlOp::MkWritable { owner, first, end } => {
                for b in first..end {
                    let st = &mut self.blocks[b];
                    if st.windows & !bit(owner) != 0 {
                        return Err(format!(
                            "mk_writable(owner={owner}) on block {b} while a foreign \
                             window is open (mask {:#x})",
                            st.windows
                        ));
                    }
                    st.owner = Some(owner);
                    // Taking ownership subsumes the node's own window.
                    st.windows &= !bit(owner);
                    st.dirty &= !bit(owner);
                }
                Ok(())
            }
            CtlOp::ImplicitWritable { node, first, end } => {
                for b in first..end {
                    let st = &mut self.blocks[b];
                    if st.owner == Some(node) {
                        return Err(format!(
                            "implicit_writable by node {node}, the owner of block {b}: \
                             owners write directly"
                        ));
                    }
                    if st.windows & bit(node) != 0 {
                        return Err(format!(
                            "implicit_writable reopens node {node}'s already-open \
                             window on block {b}"
                        ));
                    }
                    st.windows |= bit(node);
                }
                Ok(())
            }
            CtlOp::SendRange {
                owner,
                reader,
                first,
                end,
            } => {
                if reader == owner {
                    return Err(format!("send_range from node {owner} to itself"));
                }
                for b in first..end {
                    let st = &self.blocks[b];
                    if st.owner != Some(owner) {
                        return Err(format!(
                            "send_range by node {owner} of block {b}, owned by {:?}",
                            st.owner
                        ));
                    }
                    if st.windows & bit(reader) == 0 {
                        return Err(format!(
                            "send_range of block {b} into node {reader}'s closed window"
                        ));
                    }
                    if st.dirty & bit(reader) != 0 {
                        return Err(format!(
                            "send_range of block {b} would overwrite node {reader}'s \
                             dirty window copy"
                        ));
                    }
                    if self.pending[reader].contains(&b) {
                        return Err(format!(
                            "send_range re-pushes block {b} to node {reader} before \
                             ready_to_recv"
                        ));
                    }
                }
                for b in first..end {
                    self.pending[reader].insert(b);
                }
                Ok(())
            }
            CtlOp::ReadyToRecv { node } => {
                if self.pending[node].is_empty() {
                    return Err(format!(
                        "ready_to_recv at node {node} with no pending delivery"
                    ));
                }
                self.pending[node].clear();
                Ok(())
            }
            CtlOp::ImplicitInvalidate { node, first, end } => {
                for b in first..end {
                    let st = &self.blocks[b];
                    if st.windows & bit(node) == 0 {
                        return Err(format!(
                            "implicit_invalidate of block {b} at node {node}, whose \
                             window is not open"
                        ));
                    }
                    if st.dirty & bit(node) != 0 {
                        return Err(format!(
                            "implicit_invalidate of block {b} would discard node \
                             {node}'s dirty data: flush_range first"
                        ));
                    }
                    if self.pending[node].contains(&b) {
                        return Err(format!(
                            "implicit_invalidate of block {b} at node {node} with a \
                             push still pending"
                        ));
                    }
                }
                for b in first..end {
                    self.blocks[b].windows &= !bit(node);
                }
                Ok(())
            }
            CtlOp::FlushRange {
                writer,
                owner,
                first,
                end,
            } => {
                if writer == owner {
                    return Err(format!("flush_range from node {writer} to itself"));
                }
                for b in first..end {
                    let st = &self.blocks[b];
                    if st.owner != Some(owner) {
                        return Err(format!(
                            "flush_range of block {b} toward node {owner}, but the \
                             owner is {:?}",
                            st.owner
                        ));
                    }
                    if st.windows & bit(writer) == 0 {
                        return Err(format!(
                            "flush_range of block {b} by node {writer}, whose window \
                             is not open"
                        ));
                    }
                    if st.dirty & bit(writer) == 0 {
                        return Err(format!(
                            "flush_range of block {b} by node {writer}, which wrote \
                             nothing"
                        ));
                    }
                }
                for b in first..end {
                    // The window stays open (§4.3: the memo survives a
                    // flush) — only the dirty data went home.
                    self.blocks[b].dirty &= !bit(writer);
                }
                Ok(())
            }
            CtlOp::Write { node, block } => {
                let st = &mut self.blocks[block];
                if st.windows != 0 {
                    if st.windows & bit(node) != 0 {
                        st.dirty |= bit(node);
                    } else if st.owner != Some(node) {
                        return Err(format!(
                            "write to block {block} by node {node} while windows are \
                             open: only the owner or a window-holder may write"
                        ));
                    }
                } else {
                    // No windows: an ordinary coherent write — the
                    // protocol grants exclusivity to the writer.
                    st.owner = Some(node);
                }
                Ok(())
            }
            CtlOp::Release => {
                for (b, st) in self.blocks.iter().enumerate() {
                    if st.dirty != 0 {
                        return Err(format!(
                            "release with unflushed dirty window copies of block {b} \
                             (mask {:#x})",
                            st.dirty
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> ContractTracker {
        ContractTracker::new(3, 4)
    }

    /// The canonical legal window: mk_writable → implicit_writable →
    /// send_range → ready_to_recv → window write → flush_range →
    /// implicit_invalidate → release.
    #[test]
    fn legal_window_lifecycle() {
        let mut c = t();
        for op in [
            CtlOp::MkWritable {
                owner: 0,
                first: 0,
                end: 2,
            },
            CtlOp::ImplicitWritable {
                node: 1,
                first: 0,
                end: 2,
            },
            CtlOp::SendRange {
                owner: 0,
                reader: 1,
                first: 0,
                end: 2,
            },
            CtlOp::ReadyToRecv { node: 1 },
            CtlOp::Write { node: 1, block: 0 },
            CtlOp::FlushRange {
                writer: 1,
                owner: 0,
                first: 0,
                end: 1,
            },
            CtlOp::ImplicitInvalidate {
                node: 1,
                first: 0,
                end: 2,
            },
            CtlOp::Release,
        ] {
            c.step(op).unwrap_or_else(|e| panic!("{op:?}: {e}"));
        }
    }

    #[test]
    fn send_needs_ownership_and_open_window() {
        let mut c = t();
        c.step(CtlOp::MkWritable {
            owner: 0,
            first: 0,
            end: 1,
        })
        .unwrap();
        // Closed window at the reader.
        assert!(c
            .step(CtlOp::SendRange {
                owner: 0,
                reader: 1,
                first: 0,
                end: 1
            })
            .is_err());
        // Wrong owner.
        c.step(CtlOp::ImplicitWritable {
            node: 1,
            first: 0,
            end: 1,
        })
        .unwrap();
        assert!(c
            .step(CtlOp::SendRange {
                owner: 2,
                reader: 1,
                first: 0,
                end: 1
            })
            .is_err());
    }

    #[test]
    fn dirty_window_blocks_invalidate_and_release() {
        let mut c = t();
        c.step(CtlOp::MkWritable {
            owner: 0,
            first: 0,
            end: 1,
        })
        .unwrap();
        c.step(CtlOp::ImplicitWritable {
            node: 1,
            first: 0,
            end: 1,
        })
        .unwrap();
        c.step(CtlOp::Write { node: 1, block: 0 }).unwrap();
        assert!(c
            .step(CtlOp::ImplicitInvalidate {
                node: 1,
                first: 0,
                end: 1
            })
            .is_err());
        assert!(c.step(CtlOp::Release).is_err());
        c.step(CtlOp::FlushRange {
            writer: 1,
            owner: 0,
            first: 0,
            end: 1,
        })
        .unwrap();
        c.step(CtlOp::Release).unwrap();
        // §4.3: the window survived the flush.
        assert_ne!(c.blocks[0].windows & bit(1), 0);
    }

    #[test]
    fn ready_to_recv_requires_a_pending_push() {
        let mut c = t();
        assert!(c.step(CtlOp::ReadyToRecv { node: 1 }).is_err());
    }

    #[test]
    fn third_party_write_during_window_is_illegal() {
        let mut c = t();
        c.step(CtlOp::MkWritable {
            owner: 0,
            first: 0,
            end: 1,
        })
        .unwrap();
        c.step(CtlOp::ImplicitWritable {
            node: 1,
            first: 0,
            end: 1,
        })
        .unwrap();
        assert!(c.step(CtlOp::Write { node: 2, block: 0 }).is_err());
        // The owner itself may still write.
        c.step(CtlOp::Write { node: 0, block: 0 }).unwrap();
    }

    #[test]
    fn free_write_claims_ownership() {
        let mut c = t();
        c.step(CtlOp::Write { node: 2, block: 3 }).unwrap();
        assert_eq!(c.blocks[3].owner, Some(2));
    }
}
