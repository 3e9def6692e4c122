//! The paper's default protocol: directory-based eager-invalidate
//! multiple-writer release consistency at cache-block granularity (§3, §5).

use crate::dir::DirState;
use crate::proto::{Dsm, Protocol};
use crate::trans;
use fgdsm_tempest::{Access, ChargeKind, Event, FaultKind, NodeId};

/// Eager-invalidate multiple-writer release consistency.
///
/// Writers steal blocks without waiting for invalidation acknowledgements
/// (they drain by the next release); false-shared blocks enter a `Multi`
/// state with per-writer twins whose word diffs merge at the home on
/// release. Exclusive ownership survives barriers — the property §4.3's
/// run-time overhead elimination relies on — and the §4.2 ctl contract is
/// sound on top of it.
#[derive(Default)]
pub struct EagerInvalidate {
    /// Blocks currently in `Multi` state, flushed at the next release.
    multi_blocks: Vec<usize>,
}

/// A like-run shorter than this is serviced block by block: the range
/// calls of a run cost more than they save on one or two blocks.
const MIN_RUN: usize = 3;

impl EagerInvalidate {
    pub fn new() -> Self {
        Self::default()
    }

    /// `p`'s read faults on the like-run `[b, e)`: block `b` is serviced
    /// as a lone fault while every node's events are captured; the other
    /// blocks take the events replayed and the transition's changes a
    /// range at a time — the owner's flush home and the home's copy to
    /// `p`, the tags of every node the transition sets, the directory.
    fn read_run(&mut self, d: &mut Dsm, p: NodeId, b: usize, e: usize) {
        let (cur, h) = (d.dir_state(b), d.cluster.home_of_block(b));
        let (s, _) = d.cluster.block_words(b);
        d.cluster.map_range(p, s, 1);
        d.cluster.capture_begin();
        self.read_access(d, p, b);
        if let DirState::Excl { owner } = cur {
            if owner != h {
                copy_run(d, owner, h, b, e);
                spread_tag(d, owner, b, e);
            }
            spread_tag(d, h, b, e);
        }
        copy_run(d, h, p, b, e);
        spread_tag(d, p, b, e);
        d.set_dir_range(b + 1, e, d.dir_state(b));
        d.cluster.replay_run(e - b - 1);
    }

    /// `p`'s write faults on the like-run `[b, e)`, as
    /// [`EagerInvalidate::read_run`] services reads: the steal's flush
    /// and fetch a range at a time, every node it invalidates and `p`
    /// itself retagged, one pending write per block.
    fn write_run(&mut self, d: &mut Dsm, p: NodeId, b: usize, e: usize) {
        let (cur, h) = (d.dir_state(b), d.cluster.home_of_block(b));
        let need_data = d.cluster.tag(p, b) == Access::Invalid;
        let (s, _) = d.cluster.block_words(b);
        d.cluster.map_range(p, s, 1);
        d.cluster.capture_begin();
        self.write_access_excl(d, p, b);
        let eff = trans::acquire_excl(cur, p, h);
        if let Some(owner) = eff.flush_owner {
            copy_run(d, owner, h, b, e);
        }
        if need_data {
            copy_run(d, h, p, b, e);
        }
        let retagged = DirState::nodes(eff.invalidate_readers)
            .chain(eff.invalidate_owner)
            .chain([h, p]);
        for n in retagged {
            spread_tag(d, n, b, e);
        }
        if p != h {
            (b + 1..e).for_each(|_| d.cluster.note_pending_write(p));
        }
        d.set_dir_range(b + 1, e, eff.next);
        d.cluster.replay_run(e - b - 1);
    }
}

/// Copy the words of blocks `(b, e)` from `src`'s copy to `dst`'s.
fn copy_run(d: &mut Dsm, src: NodeId, dst: NodeId, b: usize, e: usize) {
    let (start, _) = d.cluster.block_words(b + 1);
    let (_, stop) = d.cluster.block_words(e - 1);
    d.cluster.copy_words(src, dst, start, stop - start);
}

/// Give blocks `(b, e)` at `n` the tag block `b` has there.
fn spread_tag(d: &mut Dsm, n: NodeId, b: usize, e: usize) {
    let tag = d.cluster.tag(n, b);
    d.cluster.set_tag_range(n, b + 1, e, tag);
}

impl Protocol for EagerInvalidate {
    fn name(&self) -> &'static str {
        "eager-invalidate"
    }

    fn supports_ctl(&self) -> bool {
        true
    }

    fn skips_held(&self) -> bool {
        true
    }

    fn read_access(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
        let cfg = *d.cluster.cfg();
        let h = d.cluster.home_of_block(b);
        let (s, e) = d.cluster.block_words(b);
        d.cluster.map_range(p, s, e - s);
        d.cluster.record(
            p,
            Event::Fault {
                block: b,
                kind: FaultKind::Read,
            },
        );
        // Fault detection + request to home.
        let mut stall = cfg.fault_detect_ns;
        if p != h {
            stall += cfg.one_way_ns(8) + d.hc(cfg.handler_dispatch_ns);
            d.cluster.note_msg_at(p, h, 8, b);
            d.cluster
                .charge_handler(h, cfg.handler_dispatch_ns + cfg.dir_lookup_ns);
        }
        stall += d.hc(cfg.dir_lookup_ns);

        let cur = d.dir_state(b);
        match cur {
            DirState::Shared { .. } => {
                // Clean: home copy is current.
                stall += d.data_home_to(p, h, b);
            }
            DirState::Excl { owner } if owner == h => {
                stall += d.data_home_to(p, h, b);
                // Home downgrades to read-only so its own later writes fault.
                d.cluster.set_tag(h, b, Access::ReadOnly);
            }
            DirState::Excl { owner } => {
                assert_ne!(owner, p, "read fault by recorded exclusive owner");
                debug_assert_eq!(trans::read_flush_owner(cur, h), Some(owner));
                // 4-hop (Figure 1(a)): put-data-request to owner, data back
                // to home, then response to requester.
                stall += cfg.one_way_ns(8)
                    + d.hc(cfg.handler_dispatch_ns + cfg.block_copy_ns)
                    + cfg.one_way_ns(cfg.block_bytes)
                    + d.hc(cfg.handler_dispatch_ns + cfg.block_copy_ns + cfg.dir_lookup_ns);
                d.cluster.note_msg_at(h, owner, 8, b);
                d.cluster.charge_handler(
                    owner,
                    cfg.handler_dispatch_ns + cfg.block_copy_ns + cfg.tag_change_ns,
                );
                d.cluster.note_msg_at(owner, h, cfg.block_bytes, b);
                d.cluster.charge_handler(
                    h,
                    cfg.handler_dispatch_ns + cfg.block_copy_ns + cfg.dir_lookup_ns,
                );
                // Data: owner → home, owner downgrades, home readable.
                d.wire_copy(owner, h, s, e - s);
                d.cluster.set_tag(owner, b, Access::ReadOnly);
                d.cluster.set_tag(h, b, Access::ReadOnly);
                stall += d.data_home_to(p, h, b);
            }
            DirState::Multi { writers, .. } => {
                // A non-writer reads a false-shared block mid-interval
                // (wide stencil): every writer flushes its diff home so the
                // merge base is current, then the home serves the reader.
                // Element-level race freedom guarantees the reader never
                // looks at words a writer changes after this point.
                for w in DirState::nodes(writers) {
                    let mask = d.diff_mask(w, b);
                    if mask != 0 && w != h {
                        let bytes = d.wire_diff(w, h, b, mask);
                        d.cluster
                            .charge_handler(w, cfg.handler_dispatch_ns + cfg.block_copy_ns);
                        d.cluster
                            .charge_handler(h, cfg.handler_dispatch_ns + cfg.block_copy_ns);
                        stall += cfg.one_way_ns(bytes) + d.hc(2 * cfg.handler_dispatch_ns);
                    } else if mask != 0 {
                        d.cluster.merge_block_words(w, h, b, mask);
                    }
                    // Refresh the twin: subsequent diffs are relative to
                    // the new merge base.
                    d.make_twin(w, b);
                }
                stall += d.data_home_to(p, h, b);
            }
        }
        d.set_dir(b, trans::read_next(cur, p, h));
        d.cluster.set_tag(p, b, Access::ReadOnly);
        stall += cfg.tag_change_ns;
        d.cluster.charge(p, stall, ChargeKind::Stall);
    }

    /// Service a write fault with *steal* semantics: `p` becomes the single
    /// exclusive writer. Eager invalidation: `p` does not wait for
    /// invalidation acknowledgements (they drain at the next release), so
    /// the stall is only fault handling plus a data fetch when `p` has no
    /// valid copy.
    fn write_access_excl(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
        if d.cluster.tag(p, b) == Access::ReadWrite && d.dir_state(b).is_excl_by(p) {
            return;
        }
        let cfg = *d.cluster.cfg();
        let h = d.cluster.home_of_block(b);
        let (s, e) = d.cluster.block_words(b);
        d.cluster.map_range(p, s, e - s);
        let kind = if d.cluster.tag(p, b) == Access::ReadOnly {
            FaultKind::Upgrade
        } else {
            FaultKind::Write
        };
        d.cluster.record(p, Event::Fault { block: b, kind });

        let mut stall = cfg.fault_detect_ns + cfg.tag_change_ns;
        if p != h {
            // Eager ownership request: injection only.
            stall += cfg.msg_send_ns;
            d.cluster.note_msg_at(p, h, 8, b);
            d.cluster.note_pending_write(p);
        }
        d.cluster
            .charge_handler(h, cfg.handler_dispatch_ns + cfg.dir_lookup_ns);

        let need_data = d.cluster.tag(p, b) == Access::Invalid;
        let cur = d.dir_state(b);
        if let DirState::Excl { owner } = cur {
            assert_ne!(
                owner, p,
                "write fault by a node that is already exclusive owner"
            );
        }
        if matches!(cur, DirState::Multi { .. }) {
            unreachable!("steal write on a Multi block: use write_access_multi")
        }
        let eff = trans::acquire_excl(cur, p, h);
        // Invalidate every other reader, eagerly.
        for r in DirState::nodes(eff.invalidate_readers) {
            if r != h {
                d.cluster.note_msg_at(h, r, 8, b);
            }
            d.cluster
                .charge_handler(r, cfg.handler_dispatch_ns + cfg.tag_change_ns);
            d.cluster.set_tag(r, b, Access::Invalid);
        }
        if let Some(owner) = eff.flush_owner {
            // Current data is at `owner`: flush home, invalidate.
            d.cluster.charge_handler(
                owner,
                cfg.handler_dispatch_ns + cfg.block_copy_ns + cfg.tag_change_ns,
            );
            d.cluster.note_msg_at(h, owner, 8, b);
            d.cluster.note_msg_at(owner, h, cfg.block_bytes, b);
            d.cluster
                .charge_handler(h, cfg.handler_dispatch_ns + cfg.block_copy_ns);
            d.wire_copy(owner, h, s, e - s);
            stall += cfg.one_way_ns(8)
                + d.hc(cfg.handler_dispatch_ns + cfg.block_copy_ns)
                + cfg.one_way_ns(cfg.block_bytes)
                + d.hc(cfg.handler_dispatch_ns + cfg.block_copy_ns);
        }
        if let Some(owner) = eff.invalidate_owner {
            d.cluster.set_tag(owner, b, Access::Invalid);
        }
        if need_data {
            stall += d.data_home_to(p, h, b);
        }
        if h != p {
            d.cluster.set_tag(h, b, Access::Invalid);
        }
        d.cluster.set_tag(p, b, Access::ReadWrite);
        d.set_dir(b, eff.next);
        d.cluster.charge(p, stall, ChargeKind::Stall);
    }

    /// Service a write fault on a block that *multiple* nodes write in the
    /// same interval (false sharing at array-column boundaries, §4.1
    /// footnote): `p` joins the writer set, keeping a twin for the
    /// word-granularity diff merged at the next release.
    fn write_access_multi(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
        let cfg = *d.cluster.cfg();
        let h = d.cluster.home_of_block(b);
        let (s, e) = d.cluster.block_words(b);
        // Already a writer in Multi state?
        if let DirState::Multi { writers, .. } = d.dir_state(b) {
            if writers & DirState::bit(p) != 0 {
                return;
            }
        }
        d.cluster.map_range(p, s, e - s);
        d.cluster.record(
            p,
            Event::Fault {
                block: b,
                kind: FaultKind::MultiWrite,
            },
        );

        let mut stall = cfg.fault_detect_ns + cfg.tag_change_ns;
        if p != h {
            stall += cfg.msg_send_ns;
            d.cluster.note_msg_at(p, h, 8, b);
            d.cluster.note_pending_write(p);
        }
        d.cluster
            .charge_handler(h, cfg.handler_dispatch_ns + cfg.dir_lookup_ns);

        // First entry into Multi: normalize the previous state so the home
        // copy is the merge base.
        let eff = trans::enter_multi(d.dir_state(b), p, h);
        if let Some(owner) = eff.flush_owner {
            // Owner flushes its current copy home and keeps writing.
            d.cluster
                .charge_handler(owner, cfg.handler_dispatch_ns + cfg.block_copy_ns);
            d.cluster.note_msg_at(owner, h, cfg.block_bytes, b);
            d.cluster
                .charge_handler(h, cfg.handler_dispatch_ns + cfg.block_copy_ns);
            d.wire_copy(owner, h, s, e - s);
            stall += cfg.one_way_ns(8)
                + d.hc(2 * cfg.handler_dispatch_ns + 2 * cfg.block_copy_ns)
                + cfg.one_way_ns(cfg.block_bytes);
        }
        if let Some(owner) = eff.twin_owner {
            d.make_twin(owner, b);
        }
        for r in DirState::nodes(eff.invalidate_readers) {
            if r != h {
                d.cluster.note_msg_at(h, r, 8, b);
            }
            d.cluster
                .charge_handler(r, cfg.handler_dispatch_ns + cfg.tag_change_ns);
            d.cluster.set_tag(r, b, Access::Invalid);
        }
        if eff.first_entry {
            self.multi_blocks.push(b);
        }
        // `p` joins: fetch the merge base if it has no valid copy.
        if d.cluster.tag(p, b) == Access::Invalid {
            stall += d.data_home_to(p, h, b);
        }
        d.make_twin(p, b);
        d.cluster.set_tag(p, b, Access::ReadWrite);
        if eff.invalidate_home {
            d.cluster.set_tag(h, b, Access::Invalid);
        }
        d.set_dir(b, eff.next);
        d.cluster.charge(p, stall, ChargeKind::Stall);
    }

    /// Only the blocks `p` does not already hold writable and exclusive
    /// fault; the scan finds each in turn, 64 blocks a word, without
    /// entering the fault path for the rest (servicing block `b` changes
    /// no later block's state at `p`, so the scan resumes after it). A
    /// like-run of faults (`Dsm::like_run`) is one transaction
    /// (`EagerInvalidate::write_run`).
    fn write_access_range(&mut self, d: &mut Dsm, p: NodeId, first: usize, end: usize) {
        let mut from = first;
        while let Some(b) = d.first_not_exclusive(p, from, end) {
            from = d.like_run(p, b, end);
            if from - b < MIN_RUN {
                (b..from).for_each(|b| self.write_access_excl(d, p, b));
            } else {
                self.write_run(d, p, b, from);
            }
        }
    }

    fn read_access_range(&mut self, d: &mut Dsm, p: NodeId, first: usize, end: usize) {
        let mut from = first;
        while let Some(b) = d.first_invalid(p, from, end) {
            from = d.like_run(p, b, end);
            if from - b < MIN_RUN {
                (b..from).for_each(|b| self.read_access(d, p, b));
            } else {
                self.read_run(d, p, b, from);
            }
        }
    }

    /// Release point: merge all `Multi` blocks home via word diffs.
    /// Exclusive blocks stay with their owner — the property run-time
    /// overhead elimination relies on (§4.3).
    fn release(&mut self, d: &mut Dsm) {
        let cfg = *d.cluster.cfg();
        let blocks = std::mem::take(&mut self.multi_blocks);
        for b in blocks {
            let DirState::Multi { writers, readers } = d.dir_state(b) else {
                continue;
            };
            let h = d.cluster.home_of_block(b);
            for r in DirState::nodes(readers) {
                // Transient readers of the old merge base are invalidated.
                d.cluster.set_tag(r, b, Access::Invalid);
            }
            for w in DirState::nodes(writers) {
                let mask = d.diff_mask(w, b);
                if w != h {
                    d.wire_diff(w, h, b, mask);
                    d.cluster.charge(w, cfg.msg_send_ns, ChargeKind::Stall);
                    d.cluster
                        .charge_handler(h, cfg.handler_dispatch_ns + cfg.block_copy_ns);
                }
                d.cluster.set_tag(w, b, Access::Invalid);
                d.remove_twin(w, b);
            }
            d.cluster.set_tag(h, b, Access::ReadWrite);
            d.set_dir(b, trans::release_next(h));
        }
    }

    fn check(&self, d: &Dsm) -> Result<(), String> {
        // Untouched blocks are still in the initial state (home holds the
        // exclusive writable copy, everyone else Invalid), which satisfies
        // every arm below — so only traffic-touched blocks need scanning.
        let ctl = d.ctl_blocks();
        let touched = d.touched_blocks();
        // The scans' copy of the directory's owners must be its own: a
        // member of a node's exclusive set is `Excl` there (here), and an
        // `Excl` block is a member of its owner's (below).
        for n in 0..d.cluster.nprocs() {
            let members = d.excl_blocks(n).intersection(&touched);
            if let Some(b) = { members }.find(|&b| !d.dir_state(b).is_excl_by(n)) {
                return Err(format!(
                    "block {b}: in node {n}'s exclusive set, but the directory says {:?}",
                    d.dir_state(b)
                ));
            }
        }
        for b in touched.iter() {
            match d.dir_state(b) {
                DirState::Excl { owner } => {
                    if !d.excl_blocks(owner).contains(b) {
                        return Err(format!(
                            "block {b}: directory says Excl({owner}) but the owner's exclusive set misses it"
                        ));
                    }
                    // The directory's record of the sole current copy must
                    // actually be a valid copy at that node — a skipped
                    // non-owner-write flush leaves the writer dir-exclusive
                    // with an Invalid tag.
                    if d.cluster.tag(owner, b) == Access::Invalid {
                        return Err(format!(
                            "block {b}: directory says Excl({owner}) but the owner's copy is Invalid"
                        ));
                    }
                    for n in 0..d.cluster.nprocs() {
                        let t = d.cluster.tag(n, b);
                        if n != owner && t == Access::ReadWrite && !ctl.contains(n, b) {
                            return Err(format!(
                                "block {b}: node {n} is ReadWrite but directory says Excl({owner})"
                            ));
                        }
                    }
                }
                DirState::Shared { readers } => {
                    for n in 0..d.cluster.nprocs() {
                        let t = d.cluster.tag(n, b);
                        // Same excuse as the Excl arm: under RTOE a
                        // compiler-controlled reader keeps its ReadWrite
                        // tag between supersteps (§4.3) even after a
                        // third party's default read shares the block.
                        if t == Access::ReadWrite && !ctl.contains(n, b) {
                            return Err(format!(
                                "block {b}: node {n} is ReadWrite but directory says Shared"
                            ));
                        }
                        if t == Access::ReadOnly && readers & DirState::bit(n) == 0 {
                            return Err(format!(
                                "block {b}: node {n} is ReadOnly but not in sharer mask"
                            ));
                        }
                    }
                }
                DirState::Multi { .. } => {
                    return Err(format!("block {b}: Multi state survived a release"));
                }
            }
        }
        Ok(())
    }
}
