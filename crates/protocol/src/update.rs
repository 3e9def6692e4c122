//! The write-update alternative protocol (§3 aside): writers keep every
//! sharer's copy current at each release instead of invalidating.

use crate::dir::DirState;
use crate::proto::{Dsm, Protocol};
use crate::trans;
use fgdsm_tempest::{Access, ChargeKind, Event, FaultKind, NodeId};

/// Write-update release consistency.
///
/// Copies stay valid (no re-fetch misses), but every release propagates
/// each writer's dirty words to *every* sharer, whether or not it will
/// read them again — the trade-off the `ext_update_protocol` benchmark
/// quantifies. The §4.2 ctl contract is not sound on top of this protocol
/// (its directory never records exclusive owners), so `supports_ctl` is
/// false and the optimized executor refuses it.
#[derive(Default)]
pub struct WriteUpdate {
    /// (block, writer) pairs dirty this interval.
    update_set: Vec<(usize, NodeId)>,
}

impl WriteUpdate {
    pub fn new() -> Self {
        Self::default()
    }
}

impl WriteUpdate {
    /// Register `p` as a writer of `b` for this interval (twin for the
    /// diff), fetching the block only if the node has no valid copy.
    /// Sharers are *not* invalidated — they receive the dirty words at
    /// the next release.
    fn write_access(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
        let cfg = *d.cluster.cfg();
        if d.cluster.tag(p, b) == Access::ReadWrite {
            if !d.has_twin(p, b) {
                // Standing writer, new interval: local bookkeeping only.
                d.make_twin(p, b);
                self.update_set.push((b, p));
                d.cluster.charge(p, cfg.tag_change_ns, ChargeKind::Stall);
                // Normalize the directory (the home node starts out
                // recorded as an exclusive owner).
                let h = d.cluster.home_of_block(b);
                d.set_dir(b, trans::update_share(d.dir_state(b), p, h));
            }
            return;
        }
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
            // Eager registration with the home directory.
            stall += cfg.msg_send_ns;
            d.cluster.note_msg_at(p, h, 8, b);
            d.cluster.note_pending_write(p);
            d.cluster
                .charge_handler(h, cfg.handler_dispatch_ns + cfg.dir_lookup_ns);
        }
        if d.cluster.tag(p, b) == Access::Invalid {
            stall += d.data_home_to(p, h, b);
        }
        d.cluster.set_tag(p, b, Access::ReadWrite);
        d.make_twin(p, b);
        self.update_set.push((b, p));
        d.cluster.charge(p, stall, ChargeKind::Stall);
        d.set_dir(b, trans::update_share(d.dir_state(b), p, h));
    }
}

impl Protocol for WriteUpdate {
    fn name(&self) -> &'static str {
        "write-update"
    }

    fn supports_ctl(&self) -> bool {
        false
    }

    /// Update-protocol read fault: the home's copy is always current at
    /// interval boundaries, so every miss is a clean 2-hop fetch — and
    /// the copy then stays valid forever (writers update it in place).
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
        let mut stall = cfg.fault_detect_ns + d.hc(cfg.dir_lookup_ns);
        if p != h {
            stall += cfg.one_way_ns(8) + d.hc(cfg.handler_dispatch_ns);
            d.cluster.note_msg_at(p, h, 8, b);
            d.cluster
                .charge_handler(h, cfg.handler_dispatch_ns + cfg.dir_lookup_ns);
        }
        stall += d.data_home_to(p, h, b);
        d.cluster.set_tag(p, b, Access::ReadOnly);
        stall += cfg.tag_change_ns;
        d.cluster.charge(p, stall, ChargeKind::Stall);
        d.set_dir(b, trans::update_share(d.dir_state(b), p, h));
    }

    fn write_access_excl(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
        self.write_access(d, p, b);
    }

    fn write_access_multi(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
        self.write_access(d, p, b);
    }

    /// Update-protocol release: every writer propagates its dirty words
    /// to the home and every other sharer — the cost that grows with the
    /// sharer set and makes update protocols expensive for migratory or
    /// single-consumer data.
    fn release(&mut self, d: &mut Dsm) {
        let cfg = *d.cluster.cfg();
        let mut set = std::mem::take(&mut self.update_set);
        set.sort_unstable();
        set.dedup();
        for (b, w) in set {
            let mask = d.diff_mask(w, b);
            d.remove_twin(w, b);
            if mask == 0 {
                continue;
            }
            let DirState::Shared { readers } = d.dir_state(b) else {
                unreachable!("update-protocol blocks are always Shared");
            };
            for t in DirState::nodes(readers) {
                if t == w {
                    continue;
                }
                d.wire_diff(w, t, b, mask);
                d.cluster.charge(w, cfg.msg_send_ns, ChargeKind::Stall);
                d.cluster
                    .charge_handler(t, cfg.handler_dispatch_ns + cfg.block_copy_ns);
            }
        }
    }

    fn check(&self, d: &Dsm) -> Result<(), String> {
        // After a release, every valid copy must equal the home copy.
        // A block no traffic ever touched has exactly one valid copy (the
        // home's), so only traffic-touched blocks can diverge.
        for b in d.touched_blocks().iter() {
            let h = d.cluster.home_of_block(b);
            let (s, e) = d.cluster.block_words(b);
            for n in 0..d.cluster.nprocs() {
                if n != h && d.cluster.tag(n, b) != Access::Invalid {
                    for w in s..e {
                        if d.cluster.node_mem(n)[w].to_bits() != d.cluster.node_mem(h)[w].to_bits()
                        {
                            return Err(format!(
                                "update protocol: node {n} copy of block {b} diverges at word {w}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
