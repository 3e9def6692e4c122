//! Directory state, kept at each block's home node.
//!
//! The directory must always know enough to find the current data (§3:
//! "the directory must be aware of the state of the block, because any
//! other processor is free to join the fray") — *except* while the
//! compiler has taken a block under explicit control, during which the
//! directory deliberately continues to believe the owner holds the block
//! exclusively (Figure 2C–2E).

use fgdsm_tempest::NodeId;

/// Coherence state of one block as recorded at its home.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DirState {
    /// Read-only copies at the nodes in the bitmask; the home's data copy
    /// is current.
    Shared { readers: u64 },
    /// A single writable copy at `owner` (initially the home itself).
    Excl { owner: NodeId },
    /// Multiple concurrent writers (false sharing): each writer in the
    /// bitmask holds a writable copy and a twin; the home's copy is the
    /// merge base. `readers` are nodes holding transient read copies of
    /// the merge base. Resolved by word-granularity diffs at the next
    /// release, which invalidates every copy except the home's.
    Multi { writers: u64, readers: u64 },
}

impl DirState {
    /// Bit for a node in a sharer/writer mask.
    #[inline]
    pub fn bit(node: NodeId) -> u64 {
        debug_assert!(node < 64, "directory masks support up to 64 nodes");
        1u64 << node
    }

    /// Iterate the nodes present in a bitmask, ascending: one step per
    /// node present.
    pub fn nodes(mask: u64) -> impl Iterator<Item = NodeId> {
        let mut left = mask;
        std::iter::from_fn(move || {
            let n = (left != 0).then(|| left.trailing_zeros() as NodeId)?;
            left &= left - 1;
            Some(n)
        })
    }

    /// True if this state is `Excl` with the given owner.
    pub fn is_excl_by(&self, node: NodeId) -> bool {
        matches!(self, DirState::Excl { owner } if *owner == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_roundtrip() {
        let m = DirState::bit(0) | DirState::bit(5) | DirState::bit(63);
        let nodes: Vec<_> = DirState::nodes(m).collect();
        assert_eq!(nodes, vec![0, 5, 63]);
    }

    #[test]
    fn excl_by() {
        assert!(DirState::Excl { owner: 3 }.is_excl_by(3));
        assert!(!DirState::Excl { owner: 3 }.is_excl_by(2));
        assert!(!DirState::Shared { readers: 8 }.is_excl_by(3));
    }

    /// The empty mask iterates nothing — the zero-sharer `Shared` state a
    /// full invalidation sweep leaves behind is inert, not an error.
    #[test]
    fn empty_mask_iterates_nothing() {
        assert_eq!(DirState::nodes(0).count(), 0);
        assert!(!DirState::Shared { readers: 0 }.is_excl_by(0));
    }

    /// `Multi` is never exclusive, even with a single writer bit set.
    #[test]
    fn multi_is_never_excl() {
        let m = DirState::Multi {
            writers: DirState::bit(2),
            readers: 0,
        };
        for n in 0..64 {
            assert!(!m.is_excl_by(n));
        }
    }

    /// The max node id (63) round-trips through bit/nodes without
    /// shifting out of the mask, and a full mask yields all 64 nodes.
    #[test]
    fn max_node_id_masks() {
        assert_eq!(DirState::bit(63), 1u64 << 63);
        let all: Vec<_> = DirState::nodes(u64::MAX).collect();
        assert_eq!(all.len(), 64);
        assert_eq!(all[63], 63);
        assert!(DirState::Excl { owner: 63 }.is_excl_by(63));
    }
}
