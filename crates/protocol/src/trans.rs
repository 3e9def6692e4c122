//! Pure transition functions of the directory protocol.
//!
//! Every directory decision the protocols make — who gets invalidated,
//! whose copy must be flushed home, and what the next [`DirState`] is —
//! is computed here as a *pure function* of the current state, with no
//! access to shards, clocks or charges. The stateful implementations
//! ([`crate::eager`], [`crate::update`], the ctl primitives in
//! [`crate::ctl`]) call these functions and perform the effects (data
//! movement, tag flips, cost accounting) at their call sites; the
//! bounded model checker (`crates/model`) calls the *same* functions to
//! drive its abstract state machine. That shared core is what ties the
//! checker to the implementation: a change to a transition rule is
//! either picked up by both, or diverges and is caught by the model's
//! conformance driver.

use crate::dir::DirState;
use fgdsm_tempest::NodeId;

/// Next directory state after node `p` completes a read of a block homed
/// at `h`. Mirrors the four arms of the eager protocol's read fault:
/// every path ends with the home holding a current copy and `p` in the
/// sharer (or transient-reader) set.
pub fn read_next(cur: DirState, p: NodeId, h: NodeId) -> DirState {
    match cur {
        DirState::Shared { readers } => DirState::Shared {
            readers: readers | DirState::bit(p),
        },
        DirState::Excl { owner } if owner == h => DirState::Shared {
            readers: DirState::bit(p) | DirState::bit(h),
        },
        DirState::Excl { owner } => DirState::Shared {
            readers: DirState::bit(p) | DirState::bit(owner) | DirState::bit(h),
        },
        DirState::Multi { writers, readers } => DirState::Multi {
            writers,
            readers: readers | DirState::bit(p),
        },
    }
}

/// Which node must flush its copy home before the home can serve a read:
/// a remote exclusive owner. `None` when the home copy is already
/// current (Shared, home-owned Excl) or when the per-writer diffs handle
/// it (Multi).
pub(crate) fn read_flush_owner(cur: DirState, h: NodeId) -> Option<NodeId> {
    match cur {
        DirState::Excl { owner } if owner != h => Some(owner),
        _ => None,
    }
}

/// The decisions behind making `p` the exclusive writer of a block —
/// shared by the eager protocol's write fault and the ctl path's
/// `mk_writable` (which performs the same transition without a fault).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AcquireExcl {
    /// Readers to invalidate eagerly (never includes `p`).
    pub invalidate_readers: u64,
    /// Previous exclusive owner whose copy must be copied home before
    /// anyone can fetch it (`Some` only when that owner is neither `p`
    /// nor the home — a home-resident copy is already "flushed").
    pub flush_owner: Option<NodeId>,
    /// Previous exclusive owner to invalidate (`Some` whenever the block
    /// was exclusive at some node other than `p`).
    pub invalidate_owner: Option<NodeId>,
    /// Resulting directory state: `Excl { owner: p }`.
    pub next: DirState,
}

/// Make `p` the single exclusive writer of a block homed at `h`.
///
/// Panics on a `Multi` block: both call sites exclude false-shared
/// blocks (the eager steal dispatches to the multi-writer path, and
/// compiler ranges exclude boundary blocks).
pub fn acquire_excl(cur: DirState, p: NodeId, h: NodeId) -> AcquireExcl {
    let (invalidate_readers, flush_owner, invalidate_owner) = match cur {
        DirState::Shared { readers } => (readers & !DirState::bit(p), None, None),
        DirState::Excl { owner } if owner == p => (0, None, None),
        DirState::Excl { owner } => {
            let flush = (owner != h).then_some(owner);
            (0, flush, Some(owner))
        }
        DirState::Multi { .. } => panic!("acquire_excl on a Multi block"),
    };
    AcquireExcl {
        invalidate_readers,
        flush_owner,
        invalidate_owner,
        next: DirState::Excl { owner: p },
    }
}

/// The decisions behind node `p` joining the multiple-writer set of a
/// false-shared block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EnterMulti {
    /// On first entry from `Excl`: the previous owner whose copy must be
    /// copied home so the home becomes the merge base (`None` when that
    /// owner *is* the home).
    pub flush_owner: Option<NodeId>,
    /// On first entry from `Excl`: the previous owner joins the writer
    /// set and needs a twin of the merge base.
    pub twin_owner: Option<NodeId>,
    /// On first entry from `Shared`: readers to invalidate (never `p`).
    pub invalidate_readers: u64,
    /// True when this transition created the `Multi` state (the release
    /// work-list entry is made exactly once).
    pub first_entry: bool,
    /// Whether the home's own tag must drop to Invalid (the home copy
    /// becomes the merge base, not a readable copy) — false when the
    /// home itself is one of the writers.
    pub invalidate_home: bool,
    /// Resulting state: `Multi` with `p` added to the writers and
    /// removed from the transient readers.
    pub next: DirState,
}

/// Add `p` to the writer set of a block homed at `h`.
pub fn enter_multi(cur: DirState, p: NodeId, h: NodeId) -> EnterMulti {
    let (flush_owner, twin_owner, invalidate_readers, first_entry, writers, readers) = match cur {
        DirState::Multi { writers, readers } => (None, None, 0, false, writers, readers),
        DirState::Excl { owner } => {
            let flush = (owner != h).then_some(owner);
            (flush, Some(owner), 0, true, DirState::bit(owner), 0)
        }
        DirState::Shared { readers } => (None, None, readers & !DirState::bit(p), true, 0, 0),
    };
    let writers = writers | DirState::bit(p);
    let readers = readers & !DirState::bit(p);
    EnterMulti {
        flush_owner,
        twin_owner,
        invalidate_readers,
        first_entry,
        invalidate_home: h != p && writers & DirState::bit(h) == 0,
        next: DirState::Multi { writers, readers },
    }
}

/// Directory state after the release-point merge of a `Multi` block:
/// the home holds the merged copy exclusively.
pub fn release_next(h: NodeId) -> DirState {
    DirState::Excl { owner: h }
}

/// Update-protocol normalization: any access by `p` leaves the block
/// `Shared` with `p` and the home `h` in the sharer set (the update
/// protocol's directory never records exclusive owners — which is why
/// the ctl contract is unsound on top of it).
pub fn update_share(cur: DirState, p: NodeId, h: NodeId) -> DirState {
    let readers = match cur {
        DirState::Shared { readers } => readers,
        _ => 0,
    };
    DirState::Shared {
        readers: readers | DirState::bit(p) | DirState::bit(h),
    }
}

/// Fold one flushed block of a `flush_range` plan (`writer → owner`):
/// returns whether a *third-party* home tag must drop to Invalid (the
/// owner now holds the only current copy) and the resulting directory
/// state.
pub fn flush_fold(writer: NodeId, owner: NodeId, h: NodeId) -> (bool, DirState) {
    (h != writer && h != owner, DirState::Excl { owner })
}

/// Which node a `send_range` push reads its payload from. The contract
/// answer is always the recorded `owner`; with `stale_owner` armed (the
/// must-catch mutation) the push is redirected to the block's home
/// whenever the home is a third party — the §4.3 RTOE hazard of trusting
/// a memoized owner whose data was never flushed home.
pub fn push_source(owner: NodeId, reader: NodeId, home: NodeId, stale_owner: bool) -> NodeId {
    if stale_owner && home != owner && home != reader {
        home
    } else {
        owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: fn(NodeId) -> u64 = DirState::bit;

    #[test]
    fn read_transitions() {
        assert_eq!(
            read_next(DirState::Shared { readers: B(0) }, 2, 0),
            DirState::Shared {
                readers: B(0) | B(2)
            }
        );
        // Home-owned exclusive: home downgrades, both share.
        assert_eq!(
            read_next(DirState::Excl { owner: 0 }, 1, 0),
            DirState::Shared {
                readers: B(0) | B(1)
            }
        );
        // Remote owner: 4-hop, all three end in the sharer set.
        assert_eq!(
            read_next(DirState::Excl { owner: 2 }, 1, 0),
            DirState::Shared {
                readers: B(0) | B(1) | B(2)
            }
        );
        assert_eq!(read_flush_owner(DirState::Excl { owner: 2 }, 0), Some(2));
        assert_eq!(read_flush_owner(DirState::Excl { owner: 0 }, 0), None);
        assert_eq!(
            read_flush_owner(DirState::Shared { readers: B(1) }, 0),
            None
        );
        // Multi: the reader joins the transient-reader set only.
        assert_eq!(
            read_next(
                DirState::Multi {
                    writers: B(1),
                    readers: 0
                },
                2,
                0
            ),
            DirState::Multi {
                writers: B(1),
                readers: B(2)
            }
        );
    }

    #[test]
    fn acquire_excl_from_shared_invalidates_others() {
        let eff = acquire_excl(
            DirState::Shared {
                readers: B(0) | B(1) | B(2),
            },
            1,
            0,
        );
        assert_eq!(eff.invalidate_readers, B(0) | B(2));
        assert_eq!(eff.flush_owner, None);
        assert_eq!(eff.invalidate_owner, None);
        assert_eq!(eff.next, DirState::Excl { owner: 1 });
    }

    #[test]
    fn acquire_excl_zero_sharers_is_clean() {
        // A Shared block with an empty sharer mask (all readers already
        // invalidated): nothing to invalidate, the steal is pure
        // directory bookkeeping.
        let eff = acquire_excl(DirState::Shared { readers: 0 }, 2, 0);
        assert_eq!(eff.invalidate_readers, 0);
        assert_eq!(eff.next, DirState::Excl { owner: 2 });
    }

    #[test]
    fn acquire_excl_from_remote_owner_flushes() {
        let eff = acquire_excl(DirState::Excl { owner: 2 }, 1, 0);
        assert_eq!(eff.flush_owner, Some(2));
        assert_eq!(eff.invalidate_owner, Some(2));
        // Home-resident owner: the copy is already home, only invalidate.
        let eff = acquire_excl(DirState::Excl { owner: 0 }, 1, 0);
        assert_eq!(eff.flush_owner, None);
        assert_eq!(eff.invalidate_owner, Some(0));
    }

    #[test]
    fn acquire_excl_self_transition_is_noop() {
        // Owner re-acquiring its own block: no invalidations, no flush.
        let eff = acquire_excl(DirState::Excl { owner: 3 }, 3, 0);
        assert_eq!(eff.invalidate_readers, 0);
        assert_eq!(eff.flush_owner, None);
        assert_eq!(eff.invalidate_owner, None);
        assert_eq!(eff.next, DirState::Excl { owner: 3 });
    }

    #[test]
    #[should_panic(expected = "Multi")]
    fn acquire_excl_rejects_multi() {
        acquire_excl(
            DirState::Multi {
                writers: B(1),
                readers: 0,
            },
            0,
            0,
        );
    }

    #[test]
    fn enter_multi_from_excl_twins_the_owner() {
        let eff = enter_multi(DirState::Excl { owner: 2 }, 1, 0);
        assert_eq!(eff.flush_owner, Some(2));
        assert_eq!(eff.twin_owner, Some(2));
        assert!(eff.first_entry);
        assert!(eff.invalidate_home);
        assert_eq!(
            eff.next,
            DirState::Multi {
                writers: B(1) | B(2),
                readers: 0
            }
        );
        // Home-resident owner: no flush needed, home is a writer.
        let eff = enter_multi(DirState::Excl { owner: 0 }, 1, 0);
        assert_eq!(eff.flush_owner, None);
        assert_eq!(eff.twin_owner, Some(0));
        assert!(!eff.invalidate_home, "home is in the writer set");
    }

    #[test]
    fn enter_multi_from_shared_and_steady_state() {
        let eff = enter_multi(
            DirState::Shared {
                readers: B(0) | B(2),
            },
            1,
            0,
        );
        assert_eq!(eff.invalidate_readers, B(0) | B(2));
        assert!(eff.first_entry);
        assert_eq!(
            eff.next,
            DirState::Multi {
                writers: B(1),
                readers: 0
            }
        );
        // Already Multi: joining is pure mask arithmetic.
        let eff = enter_multi(
            DirState::Multi {
                writers: B(1),
                readers: B(2),
            },
            2,
            0,
        );
        assert!(!eff.first_entry);
        assert_eq!(
            eff.next,
            DirState::Multi {
                writers: B(1) | B(2),
                readers: 0
            }
        );
    }

    #[test]
    fn release_and_update_and_flush() {
        assert_eq!(release_next(3), DirState::Excl { owner: 3 });
        assert_eq!(
            update_share(DirState::Excl { owner: 0 }, 1, 0),
            DirState::Shared {
                readers: B(0) | B(1)
            }
        );
        assert_eq!(
            update_share(DirState::Shared { readers: B(2) }, 1, 0),
            DirState::Shared {
                readers: B(0) | B(1) | B(2)
            }
        );
        assert_eq!(flush_fold(1, 0, 0), (false, DirState::Excl { owner: 0 }));
        assert_eq!(flush_fold(1, 0, 1), (false, DirState::Excl { owner: 0 }));
        assert_eq!(flush_fold(1, 0, 2), (true, DirState::Excl { owner: 0 }));
    }

    #[test]
    fn push_source_redirects_only_third_party_homes() {
        assert_eq!(push_source(1, 0, 2, false), 1);
        assert_eq!(push_source(1, 0, 2, true), 2, "third-party home");
        assert_eq!(push_source(1, 0, 1, true), 1, "home is the owner");
        assert_eq!(push_source(1, 0, 0, true), 1, "home is the reader");
    }

    #[test]
    fn max_node_id_masks() {
        // Node 63 exercises the top directory-mask bit end to end.
        let eff = acquire_excl(DirState::Shared { readers: B(63) }, 0, 0);
        assert_eq!(eff.invalidate_readers, B(63));
        assert_eq!(
            read_next(DirState::Excl { owner: 63 }, 0, 1),
            DirState::Shared {
                readers: B(0) | B(1) | B(63)
            }
        );
    }
}
