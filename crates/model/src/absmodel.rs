//! The abstract transition-system model of the directory protocol and
//! the §4.2 contract.
//!
//! A model state tracks, for a handful of nodes and blocks, everything
//! the correctness argument depends on and nothing the cost model
//! depends on: the *real* [`DirState`] per block (transitions go through
//! [`fgdsm_protocol::trans`], the same pure decision functions the
//! stateful protocols call — that is the tie between model and
//! implementation), per-node access tags, per-copy memory contents as
//! small version numbers, per-writer twins, the compiler-contract
//! bookkeeping (open `implicit_writable` windows, dirty window copies,
//! pending `send_range` deliveries with their promised contents), and a
//! `spec` array holding the last-written version of every word — the
//! sequential happens-before reference every read and every
//! authoritative copy is judged against.
//!
//! Blocks are [`WORDS`]-words wide (two words: enough to exercise
//! word-granularity diffs, partial writes, and false sharing, small
//! enough to close the space). Block `b` is homed at `b % nodes`,
//! matching the RoundRobin page policy under the conformance mapping.

use fgdsm_hpf::{ContractTracker, CtlOp};
use fgdsm_protocol::trans;
use fgdsm_protocol::DirState;
use fgdsm_tempest::{Access, NodeId};

/// Words per model block.
pub const WORDS: usize = 2;

/// Which protocol the model runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// The paper's default: eager-invalidate MW release consistency,
    /// with the §4.2 ctl contract available on top.
    Eager,
    /// The §3 aside's write-update protocol (no ctl: `supports_ctl` is
    /// false in the real implementation).
    Update,
}

/// A seeded model-level mutation: one deliberate protocol/contract bug
/// the checker must catch with a minimal counterexample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// No mutation: the model must close with zero violations.
    None,
    /// `send_range` records the delivery promise but delivers nothing —
    /// the model-level shape of the off-by-one section bound.
    SkewSendRange,
    /// `flush_range` performs every tag/directory transition and clears
    /// the dirty bookkeeping, but never copies the data home.
    SkipFlushRange,
    /// `send_range` pushes the *home's* copy instead of the owner's
    /// whenever the home is a third party — the §4.3 stale owner-memo
    /// hazard, routed through the same [`trans::push_source`] the real
    /// ctl plan stage uses when injected.
    StaleOwnerPush,
    /// A write-fault steal forgets to invalidate one reader (the lowest
    /// node id in the sharer mask keeps its stale read-only copy).
    DroppedInvalidate,
    /// The 4-hop read serves the requester from the home *before* the
    /// owner's copy flushes home — an acknowledgement reordering.
    ReorderedAck,
    /// A read miss installs the copy but drops the requester's bit from
    /// the sharer mask.
    ForgottenSharerBit,
}

impl Mutation {
    /// Every seeded mutation (excluding `None`).
    pub const ALL: [Mutation; 6] = [
        Mutation::SkewSendRange,
        Mutation::SkipFlushRange,
        Mutation::StaleOwnerPush,
        Mutation::DroppedInvalidate,
        Mutation::ReorderedAck,
        Mutation::ForgottenSharerBit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::SkewSendRange => "skew_send_range",
            Mutation::SkipFlushRange => "skip_flush_range",
            Mutation::StaleOwnerPush => "stale_owner_push",
            Mutation::DroppedInvalidate => "dropped_invalidate",
            Mutation::ReorderedAck => "reordered_ack",
            Mutation::ForgottenSharerBit => "forgotten_sharer_bit",
        }
    }
}

/// One resolve-phase action. Ctl ops are per-block (the conformance
/// driver replays each as a one-block range call on the real `Dsm`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// A read access by `p` to block `b` (only eligible on an Invalid
    /// tag, like the real `read_access` fast-path guard).
    Read {
        p: NodeId,
        b: usize,
    },
    /// A store by `p` to word `w` of block `b`. `multi` selects the
    /// false-sharing fault flavor when the store faults; it is
    /// normalized to the state's flavor for non-faulting stores.
    Write {
        p: NodeId,
        b: usize,
        w: usize,
        multi: bool,
    },
    /// A release barrier (merges Multi blocks / propagates updates).
    Release,
    MkWritable {
        o: NodeId,
        b: usize,
    },
    ImplicitWritable {
        r: NodeId,
        b: usize,
    },
    SendRange {
        o: NodeId,
        r: NodeId,
        b: usize,
    },
    ReadyToRecv {
        r: NodeId,
    },
    ImplicitInvalidate {
        r: NodeId,
        b: usize,
    },
    FlushRange {
        f: NodeId,
        o: NodeId,
        b: usize,
    },
}

impl Op {
    /// True for the §4.2 compiler-directed primitives (erased when
    /// replaying a witness under the pure default protocol).
    pub(crate) fn is_ctl(&self) -> bool {
        matches!(
            self,
            Op::MkWritable { .. }
                | Op::ImplicitWritable { .. }
                | Op::SendRange { .. }
                | Op::ReadyToRecv { .. }
                | Op::ImplicitInvalidate { .. }
                | Op::FlushRange { .. }
        )
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Op::Read { p, b } => write!(out, "read p={p} b={b}"),
            Op::Write { p, b, w, multi } => write!(out, "write p={p} b={b} w={w} multi={multi}"),
            Op::Release => write!(out, "release"),
            Op::MkWritable { o, b } => write!(out, "mk_writable o={o} b={b}"),
            Op::ImplicitWritable { r, b } => write!(out, "implicit_writable r={r} b={b}"),
            Op::SendRange { o, r, b } => write!(out, "send_range o={o} r={r} b={b}"),
            Op::ReadyToRecv { r } => write!(out, "ready_to_recv r={r}"),
            Op::ImplicitInvalidate { r, b } => write!(out, "implicit_invalidate r={r} b={b}"),
            Op::FlushRange { f, o, b } => write!(out, "flush_range f={f} o={o} b={b}"),
        }
    }
}

impl std::str::FromStr for Op {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut it = s.split_whitespace();
        let head = it.next().ok_or("empty op")?;
        let mut kv = std::collections::BTreeMap::new();
        for tok in it {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad token {tok}"))?;
            kv.insert(k.to_string(), v.to_string());
        }
        let num = |k: &str| -> Result<usize, String> {
            kv.get(k)
                .ok_or_else(|| format!("missing {k} in {s:?}"))?
                .parse()
                .map_err(|e| format!("bad {k}: {e}"))
        };
        Ok(match head {
            "read" => Op::Read {
                p: num("p")?,
                b: num("b")?,
            },
            "write" => Op::Write {
                p: num("p")?,
                b: num("b")?,
                w: num("w")?,
                multi: kv.get("multi").map(|v| v == "true").unwrap_or(false),
            },
            "release" => Op::Release,
            "mk_writable" => Op::MkWritable {
                o: num("o")?,
                b: num("b")?,
            },
            "implicit_writable" => Op::ImplicitWritable {
                r: num("r")?,
                b: num("b")?,
            },
            "send_range" => Op::SendRange {
                o: num("o")?,
                r: num("r")?,
                b: num("b")?,
            },
            "ready_to_recv" => Op::ReadyToRecv { r: num("r")? },
            "implicit_invalidate" => Op::ImplicitInvalidate {
                r: num("r")?,
                b: num("b")?,
            },
            "flush_range" => Op::FlushRange {
                f: num("f")?,
                o: num("o")?,
                b: num("b")?,
            },
            other => return Err(format!("unknown op {other:?}")),
        })
    }
}

#[inline]
fn bit(n: NodeId) -> u64 {
    1u64 << n
}

/// One abstract protocol state. See the module docs for the field
/// semantics; everything is plain data and cheaply cloneable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbsState {
    pub nodes: usize,
    /// Real directory state per block.
    pub dir: Vec<DirState>,
    /// `tag[b][n]`: the node's access tag for the block.
    pub tag: Vec<Vec<Access>>,
    /// `mem[b][n]`: the node's copy, as per-word version numbers.
    pub mem: Vec<Vec<[u8; WORDS]>>,
    /// `twin[b][n]`: the pre-write snapshot a Multi/update writer diffs
    /// against at release.
    pub twin: Vec<Vec<Option<[u8; WORDS]>>>,
    /// `windows[b]`: node mask of open `implicit_writable` windows.
    /// Survives `flush_range` and releases (the §4.3 memo).
    pub windows: Vec<u64>,
    /// `dirty[b]`: window holders with unflushed writes.
    pub dirty: Vec<u64>,
    /// `ww[b][n]`: word mask the window holder has written this window.
    pub ww: Vec<Vec<u8>>,
    /// `pending[n]`: in-flight `send_range` deliveries toward `n`, each
    /// a (block, promised contents) pair — the owner's copy at send
    /// time, checked at `ready_to_recv` (delivery integrity).
    pub pending: Vec<Vec<(usize, [u8; WORDS])>>,
    /// `iww[b][w]`: nodes that wrote the word through a diff-merged
    /// flavor (Multi writers / update writers) this interval. Words with
    /// a non-empty mask are interval-racy and excluded from freshness
    /// checks until the release resets the mask.
    pub iww: Vec<[u64; WORDS]>,
    /// `spec[b][w]`: version of the last write in happens-before order —
    /// the sequential reference.
    pub spec: Vec<[u8; WORDS]>,
    /// Next version number to hand out.
    pub next_ver: u8,
}

impl AbsState {
    /// The initial state: every block exclusively owned by its home,
    /// which holds the only (writable) copy; all memory at version 0.
    pub(crate) fn initial(nodes: usize, blocks: usize) -> Self {
        let mut st = AbsState {
            nodes,
            dir: Vec::new(),
            tag: vec![vec![Access::Invalid; nodes]; blocks],
            mem: vec![vec![[0; WORDS]; nodes]; blocks],
            twin: vec![vec![None; nodes]; blocks],
            windows: vec![0; blocks],
            dirty: vec![0; blocks],
            ww: vec![vec![0; nodes]; blocks],
            pending: vec![Vec::new(); nodes],
            iww: vec![[0; WORDS]; blocks],
            spec: vec![[0; WORDS]; blocks],
            next_ver: 1,
        };
        for b in 0..blocks {
            let h = st.home(b);
            st.dir.push(DirState::Excl { owner: h });
            st.tag[b][h] = Access::ReadWrite;
        }
        st
    }

    pub(crate) fn blocks(&self) -> usize {
        self.dir.len()
    }

    /// Block homes follow the RoundRobin page policy (one model block
    /// per page under the conformance mapping).
    pub(crate) fn home(&self, b: usize) -> NodeId {
        b % self.nodes
    }

    fn alloc_ver(&mut self) -> u8 {
        let v = self.next_ver;
        self.next_ver += 1;
        v
    }

    fn block_pending(&self, n: NodeId, b: usize) -> bool {
        self.pending[n].iter().any(|&(pb, _)| pb == b)
    }

    /// Derive the [`ContractTracker`] view of this state — the §4.2
    /// legality rules then gate every candidate ctl op.
    pub(crate) fn tracker(&self) -> ContractTracker {
        let mut t = ContractTracker::new(self.nodes, self.blocks());
        for b in 0..self.blocks() {
            if let DirState::Excl { owner } = self.dir[b] {
                t.set_owner(b, owner);
            }
            for n in DirState::nodes(self.windows[b]) {
                t.open_window(b, n);
            }
            for n in DirState::nodes(self.dirty[b]) {
                t.mark_dirty(b, n);
            }
        }
        for n in 0..self.nodes {
            for &(b, _) in &self.pending[n] {
                t.add_pending(n, b);
            }
        }
        t
    }

    /// Apply one op. `Ok(None)` means the op is not eligible in this
    /// state (its guard fails — not an error, just not a successor);
    /// `Ok(Some(next))` is the successor state; `Err` is a detected
    /// safety violation (a stale read or a broken delivery promise).
    /// Structural/freshness invariants of the successor are checked
    /// separately via [`AbsState::check_invariants`].
    pub(crate) fn apply(
        &self,
        proto: Proto,
        op: Op,
        m: Mutation,
    ) -> Result<Option<AbsState>, String> {
        match proto {
            Proto::Eager => self.apply_eager(op, m),
            Proto::Update => self.apply_update(op, m),
        }
    }

    /// The stale-read theorem, checked at the moment of the read: every
    /// word the reader observes that is interval-stable (no diff-merged
    /// writer this interval) must carry the version of the last write in
    /// happens-before order.
    fn check_read(&self, p: NodeId, b: usize) -> Result<(), String> {
        for w in 0..WORDS {
            if self.iww[b][w] == 0 && self.mem[b][p][w] != self.spec[b][w] {
                return Err(format!(
                    "stale read: node {p} observes version {} of block {b} word {w}, \
                     but the last write in happens-before order was version {}",
                    self.mem[b][p][w], self.spec[b][w]
                ));
            }
        }
        Ok(())
    }

    fn apply_eager(&self, op: Op, m: Mutation) -> Result<Option<AbsState>, String> {
        match op {
            Op::Read { p, b } => {
                if self.tag[b][p] != Access::Invalid {
                    return Ok(None); // real read_access is a tag-hit no-op
                }
                // Compiler contract: ranges under ctl control are not
                // accessed by third parties while windows are open.
                if self.windows[b] != 0 {
                    return Ok(None);
                }
                let h = self.home(b);
                let cur = self.dir[b];
                let mut st = self.clone();
                match cur {
                    DirState::Shared { .. } => {
                        st.mem[b][p] = st.mem[b][h];
                    }
                    DirState::Excl { owner } if owner == h => {
                        st.mem[b][p] = st.mem[b][h];
                        st.tag[b][h] = Access::ReadOnly;
                    }
                    DirState::Excl { owner } => {
                        if owner == p {
                            return Ok(None); // unreachable in the real protocol
                        }
                        if m == Mutation::ReorderedAck {
                            // Mutation: serve the requester before the
                            // owner's flush lands at the home.
                            st.mem[b][p] = st.mem[b][h];
                            st.mem[b][h] = st.mem[b][owner];
                        } else {
                            // 4-hop: owner flushes home, home serves.
                            st.mem[b][h] = st.mem[b][owner];
                            st.mem[b][p] = st.mem[b][h];
                        }
                        st.tag[b][owner] = Access::ReadOnly;
                        st.tag[b][h] = Access::ReadOnly;
                    }
                    DirState::Multi { writers, .. } => {
                        // Writers flush their diffs so the merge base is
                        // current, then the home serves the reader.
                        for wr in DirState::nodes(writers) {
                            let t = st.twin[b][wr].expect("Multi writer without twin");
                            for w in 0..WORDS {
                                if st.mem[b][wr][w] != t[w] {
                                    st.mem[b][h][w] = st.mem[b][wr][w];
                                }
                            }
                            st.twin[b][wr] = Some(st.mem[b][wr]);
                        }
                        st.mem[b][p] = st.mem[b][h];
                    }
                }
                let mut next = trans::read_next(cur, p, h);
                if m == Mutation::ForgottenSharerBit {
                    if let DirState::Shared { readers } = next {
                        next = DirState::Shared {
                            readers: readers & !DirState::bit(p),
                        };
                    }
                }
                st.dir[b] = next;
                st.tag[b][p] = Access::ReadOnly;
                st.check_read(p, b)?;
                Ok(Some(st))
            }
            Op::Write { p, b, w, multi } => self.apply_eager_write(p, b, w, multi, m),
            Op::Release => {
                // The contract gates the barrier: no dirty window copies
                // (flush first) and no un-received deliveries.
                if self.dirty.iter().any(|&d| d != 0) || self.pending.iter().any(|q| !q.is_empty())
                {
                    return Ok(None);
                }
                let mut st = self.clone();
                for b in 0..st.blocks() {
                    let DirState::Multi { writers, readers } = st.dir[b] else {
                        continue;
                    };
                    let h = st.home(b);
                    for r in DirState::nodes(readers) {
                        st.tag[b][r] = Access::Invalid;
                    }
                    for wr in DirState::nodes(writers) {
                        let t = st.twin[b][wr].expect("Multi writer without twin");
                        for wd in 0..WORDS {
                            if st.mem[b][wr][wd] != t[wd] {
                                st.mem[b][h][wd] = st.mem[b][wr][wd];
                            }
                        }
                        st.tag[b][wr] = Access::Invalid;
                        st.twin[b][wr] = None;
                    }
                    st.tag[b][h] = Access::ReadWrite;
                    st.dir[b] = trans::release_next(h);
                }
                st.iww = vec![[0; WORDS]; st.blocks()];
                Ok(Some(st))
            }
            Op::MkWritable { o, b } => {
                if matches!(self.dir[b], DirState::Multi { .. }) {
                    return Ok(None); // unreachable in the real ctl path
                }
                if self.tag[b][o] == Access::ReadWrite && self.dir[b].is_excl_by(o) {
                    return Ok(None); // idempotent no-op: skip the self-loop
                }
                // A node with its *own* window still open must close it
                // first: its tag is already ReadWrite, so the transition
                // would fetch no data and promote a possibly-stale window
                // copy to the authoritative one.
                if self.windows[b] & bit(o) != 0 {
                    return Ok(None);
                }
                if self
                    .tracker()
                    .step(CtlOp::MkWritable {
                        owner: o,
                        first: b,
                        end: b + 1,
                    })
                    .is_err()
                {
                    return Ok(None);
                }
                let h = self.home(b);
                let need_data = self.tag[b][o] == Access::Invalid;
                let eff = trans::acquire_excl(self.dir[b], o, h);
                let mut st = self.clone();
                for r in DirState::nodes(eff.invalidate_readers) {
                    st.tag[b][r] = Access::Invalid;
                }
                if let Some(prev) = eff.flush_owner {
                    st.mem[b][h] = st.mem[b][prev];
                }
                if let Some(prev) = eff.invalidate_owner {
                    st.tag[b][prev] = Access::Invalid;
                }
                if need_data {
                    st.mem[b][o] = st.mem[b][h];
                }
                if h != o {
                    st.tag[b][h] = Access::Invalid;
                }
                st.tag[b][o] = Access::ReadWrite;
                st.dir[b] = eff.next;
                // Ownership subsumes the node's own window.
                st.windows[b] &= !bit(o);
                st.ww[b][o] = 0;
                Ok(Some(st))
            }
            Op::ImplicitWritable { r, b } => {
                // Windows only open over compiler-owned (Excl) ranges.
                if !matches!(self.dir[b], DirState::Excl { .. }) {
                    return Ok(None);
                }
                if self
                    .tracker()
                    .step(CtlOp::ImplicitWritable {
                        node: r,
                        first: b,
                        end: b + 1,
                    })
                    .is_err()
                {
                    return Ok(None);
                }
                let mut st = self.clone();
                st.windows[b] |= bit(r);
                st.tag[b][r] = Access::ReadWrite; // tags flip, no data moves
                Ok(Some(st))
            }
            Op::SendRange { o, r, b } => {
                if self
                    .tracker()
                    .step(CtlOp::SendRange {
                        owner: o,
                        reader: r,
                        first: b,
                        end: b + 1,
                    })
                    .is_err()
                {
                    return Ok(None);
                }
                // A holder that already wrote must not be overwritten
                // (also enforced by the tracker's dirty rule) and a
                // holder awaiting a delivery cannot be written to again.
                let h = self.home(b);
                let mut st = self.clone();
                let promise = st.mem[b][o];
                match m {
                    Mutation::SkewSendRange => {
                        // Promise recorded, nothing delivered: the
                        // one-block model shape of the skewed bound.
                    }
                    Mutation::StaleOwnerPush => {
                        let src = trans::push_source(o, r, h, true);
                        st.mem[b][r] = st.mem[b][src];
                    }
                    _ => {
                        st.mem[b][r] = st.mem[b][o];
                    }
                }
                st.pending[r].push((b, promise));
                st.pending[r].sort_unstable();
                Ok(Some(st))
            }
            Op::ReadyToRecv { r } => {
                if self.tracker().step(CtlOp::ReadyToRecv { node: r }).is_err() {
                    return Ok(None);
                }
                // Delivery integrity: the §4.2 promise is that by the
                // time ready_to_recv returns, every pushed range holds
                // exactly what the owner sent.
                for &(b, expect) in &self.pending[r] {
                    if self.mem[b][r] != expect {
                        return Err(format!(
                            "broken delivery promise: ready_to_recv at node {r} but \
                             block {b} holds {:?}, owner sent {:?}",
                            self.mem[b][r], expect
                        ));
                    }
                }
                let mut st = self.clone();
                st.pending[r].clear();
                Ok(Some(st))
            }
            Op::ImplicitInvalidate { r, b } => {
                if self
                    .tracker()
                    .step(CtlOp::ImplicitInvalidate {
                        node: r,
                        first: b,
                        end: b + 1,
                    })
                    .is_err()
                {
                    return Ok(None);
                }
                let mut st = self.clone();
                st.windows[b] &= !bit(r);
                st.tag[b][r] = Access::Invalid;
                st.ww[b][r] = 0;
                Ok(Some(st))
            }
            Op::FlushRange { f, o, b } => {
                if self
                    .tracker()
                    .step(CtlOp::FlushRange {
                        writer: f,
                        owner: o,
                        first: b,
                        end: b + 1,
                    })
                    .is_err()
                {
                    return Ok(None);
                }
                // The real flush ships whole blocks, so the contract
                // requires the writer's un-written words to be current
                // (a send_range delivered them, or the writer covered
                // the block) — otherwise the flush would lose data.
                for w in 0..WORDS {
                    if self.ww[b][f] & (1 << w) == 0 && self.mem[b][f][w] != self.mem[b][o][w] {
                        return Ok(None);
                    }
                }
                let h = self.home(b);
                let mut st = self.clone();
                if m != Mutation::SkipFlushRange {
                    st.mem[b][o] = st.mem[b][f];
                }
                st.tag[b][f] = Access::Invalid;
                st.tag[b][o] = Access::ReadWrite;
                let (invalidate_home, next) = trans::flush_fold(f, o, h);
                if invalidate_home {
                    st.tag[b][h] = Access::Invalid;
                }
                st.dir[b] = next;
                st.dirty[b] &= !bit(f);
                st.ww[b][f] = 0;
                // The window (the §4.3 memo) survives the flush.
                Ok(Some(st))
            }
        }
    }

    fn apply_eager_write(
        &self,
        p: NodeId,
        b: usize,
        w: usize,
        multi: bool,
        m: Mutation,
    ) -> Result<Option<AbsState>, String> {
        let h = self.home(b);
        // Window-holder write: the compiler-controlled store.
        if self.windows[b] & bit(p) != 0 {
            if multi || self.tag[b][p] != Access::ReadWrite {
                return Ok(None); // post-flush windows re-arm via the protocol
            }
            if self.block_pending(p, b) {
                return Ok(None); // must ready_to_recv before using the window
            }
            // Contract: window writers touch disjoint words.
            for q in DirState::nodes(self.windows[b]) {
                if q != p && self.ww[b][q] & (1 << w) != 0 {
                    return Ok(None);
                }
            }
            let mut st = self.clone();
            let v = st.alloc_ver();
            st.mem[b][p][w] = v;
            st.spec[b][w] = v;
            st.dirty[b] |= bit(p);
            st.ww[b][p] |= 1 << w;
            return Ok(Some(st));
        }
        // While any window is open on the block, only holders write it
        // (the flush is a whole-block copy; an owner write would race).
        if self.windows[b] != 0 {
            return Ok(None);
        }
        if self.tag[b][p] == Access::ReadWrite {
            // Silent store: no protocol action.
            match self.dir[b] {
                DirState::Excl { owner } if owner == p => {
                    if multi {
                        return Ok(None); // canonical encoding
                    }
                    let mut st = self.clone();
                    let v = st.alloc_ver();
                    st.mem[b][p][w] = v;
                    st.spec[b][w] = v;
                    Ok(Some(st))
                }
                DirState::Multi { writers, .. } if writers & DirState::bit(p) != 0 => {
                    if !multi {
                        return Ok(None); // canonical encoding
                    }
                    // Diff-merge nondeterminism guard: element-level
                    // race freedom means no two writers touch one word.
                    if self.iww[b][w] & !bit(p) != 0 {
                        return Ok(None);
                    }
                    let mut st = self.clone();
                    let v = st.alloc_ver();
                    st.mem[b][p][w] = v;
                    st.spec[b][w] = v;
                    st.iww[b][w] |= bit(p);
                    Ok(Some(st))
                }
                _ => Ok(None), // RW tag not matching the directory: model bug bait
            }
        } else if !multi {
            // Steal-exclusive write fault.
            if matches!(self.dir[b], DirState::Multi { .. }) {
                return Ok(None); // real code routes these to write_access_multi
            }
            if let DirState::Excl { owner } = self.dir[b] {
                if owner == p {
                    return Ok(None); // unreachable: owner faulting own block
                }
            }
            let need_data = self.tag[b][p] == Access::Invalid;
            let eff = trans::acquire_excl(self.dir[b], p, h);
            let mut st = self.clone();
            let mut inval = eff.invalidate_readers;
            if m == Mutation::DroppedInvalidate && inval != 0 {
                inval &= inval - 1; // forget the lowest reader
            }
            for r in DirState::nodes(inval) {
                st.tag[b][r] = Access::Invalid;
            }
            if let Some(prev) = eff.flush_owner {
                st.mem[b][h] = st.mem[b][prev];
            }
            if let Some(prev) = eff.invalidate_owner {
                st.tag[b][prev] = Access::Invalid;
            }
            if need_data {
                st.mem[b][p] = st.mem[b][h];
            }
            if h != p {
                st.tag[b][h] = Access::Invalid;
            }
            st.tag[b][p] = Access::ReadWrite;
            st.dir[b] = eff.next;
            let v = st.alloc_ver();
            st.mem[b][p][w] = v;
            st.spec[b][w] = v;
            Ok(Some(st))
        } else {
            // Multi-writer (false sharing) fault: join the writer set.
            if let DirState::Multi { writers, .. } = self.dir[b] {
                if writers & DirState::bit(p) != 0 {
                    return Ok(None); // silent path covers standing writers
                }
            }
            if self.iww[b][w] & !bit(p) != 0 {
                return Ok(None);
            }
            let eff = trans::enter_multi(self.dir[b], p, h);
            let mut st = self.clone();
            if let Some(prev) = eff.flush_owner {
                st.mem[b][h] = st.mem[b][prev];
            }
            if let Some(prev) = eff.twin_owner {
                st.twin[b][prev] = Some(st.mem[b][prev]);
            }
            for r in DirState::nodes(eff.invalidate_readers) {
                st.tag[b][r] = Access::Invalid;
            }
            if self.tag[b][p] == Access::Invalid {
                st.mem[b][p] = st.mem[b][h];
            }
            st.twin[b][p] = Some(st.mem[b][p]);
            st.tag[b][p] = Access::ReadWrite;
            if eff.invalidate_home {
                st.tag[b][h] = Access::Invalid;
            }
            st.dir[b] = eff.next;
            let v = st.alloc_ver();
            st.mem[b][p][w] = v;
            st.spec[b][w] = v;
            st.iww[b][w] |= bit(p);
            Ok(Some(st))
        }
    }

    fn apply_update(&self, op: Op, _m: Mutation) -> Result<Option<AbsState>, String> {
        match op {
            Op::Read { p, b } => {
                if self.tag[b][p] != Access::Invalid {
                    return Ok(None);
                }
                let h = self.home(b);
                let mut st = self.clone();
                st.mem[b][p] = st.mem[b][h];
                st.tag[b][p] = Access::ReadOnly;
                st.dir[b] = trans::update_share(self.dir[b], p, h);
                st.check_read(p, b)?;
                Ok(Some(st))
            }
            Op::Write { p, b, w, multi } => {
                if multi {
                    return Ok(None); // no Multi state under write-update
                }
                if self.iww[b][w] & !bit(p) != 0 {
                    return Ok(None); // element-level race freedom
                }
                let h = self.home(b);
                let mut st = self.clone();
                if st.tag[b][p] == Access::ReadWrite {
                    if st.twin[b][p].is_none() {
                        // Standing writer, new interval.
                        st.twin[b][p] = Some(st.mem[b][p]);
                        st.dir[b] = trans::update_share(st.dir[b], p, h);
                    }
                } else {
                    if st.tag[b][p] == Access::Invalid {
                        st.mem[b][p] = st.mem[b][h];
                    }
                    st.tag[b][p] = Access::ReadWrite;
                    st.twin[b][p] = Some(st.mem[b][p]);
                    st.dir[b] = trans::update_share(st.dir[b], p, h);
                }
                let v = st.alloc_ver();
                st.mem[b][p][w] = v;
                st.spec[b][w] = v;
                st.iww[b][w] |= bit(p);
                Ok(Some(st))
            }
            Op::Release => {
                let mut st = self.clone();
                for b in 0..st.blocks() {
                    for wr in 0..st.nodes {
                        let Some(t) = st.twin[b][wr] else { continue };
                        st.twin[b][wr] = None;
                        let diff: Vec<usize> =
                            (0..WORDS).filter(|&w| st.mem[b][wr][w] != t[w]).collect();
                        if diff.is_empty() {
                            continue;
                        }
                        let DirState::Shared { readers } = st.dir[b] else {
                            unreachable!("update-protocol writer on a non-Shared block")
                        };
                        for target in DirState::nodes(readers) {
                            if target == wr {
                                continue;
                            }
                            for &w in &diff {
                                st.mem[b][target][w] = st.mem[b][wr][w];
                            }
                        }
                    }
                }
                st.iww = vec![[0; WORDS]; st.blocks()];
                Ok(Some(st))
            }
            // No ctl ops: the real WriteUpdate reports supports_ctl = false.
            _ => Ok(None),
        }
    }

    /// Structural + freshness invariants, checked on every visited
    /// state. Deliberately *stricter* than the implementation's
    /// `check_consistency` (which only runs at barriers): these must
    /// hold at every interleaving point.
    pub(crate) fn check_invariants(&self, proto: Proto) -> Result<(), String> {
        for b in 0..self.blocks() {
            // Bookkeeping sanity.
            if self.dirty[b] & !self.windows[b] != 0 {
                return Err(format!("block {b}: dirty bits outside open windows"));
            }
            for n in 0..self.nodes {
                if self.ww[b][n] != 0 && self.windows[b] & bit(n) == 0 {
                    return Err(format!("block {b}: write mask without a window at {n}"));
                }
            }
            if self.windows[b] != 0 && !matches!(self.dir[b], DirState::Excl { .. }) {
                return Err(format!(
                    "block {b}: open windows but directory is {:?}",
                    self.dir[b]
                ));
            }
            match self.dir[b] {
                DirState::Excl { owner } => {
                    if self.tag[b][owner] == Access::Invalid {
                        return Err(format!(
                            "block {b}: directory says Excl({owner}) but the owner's \
                             copy is Invalid"
                        ));
                    }
                    for n in 0..self.nodes {
                        if n == owner {
                            continue;
                        }
                        if self.tag[b][n] != Access::Invalid && self.windows[b] & bit(n) == 0 {
                            return Err(format!(
                                "block {b}: node {n} holds a {:?} copy under \
                                 Excl({owner}) without an open window",
                                self.tag[b][n]
                            ));
                        }
                    }
                }
                DirState::Shared { readers } => {
                    for n in 0..self.nodes {
                        match self.tag[b][n] {
                            Access::ReadOnly => {
                                if readers & DirState::bit(n) == 0 {
                                    return Err(format!(
                                        "block {b}: node {n} is ReadOnly but not in \
                                         the sharer mask"
                                    ));
                                }
                            }
                            Access::ReadWrite => {
                                if proto == Proto::Eager {
                                    return Err(format!(
                                        "block {b}: node {n} is ReadWrite but the \
                                         directory says Shared"
                                    ));
                                }
                                // Update protocol: writers stay RW and
                                // must be registered sharers.
                                if readers & DirState::bit(n) == 0 {
                                    return Err(format!(
                                        "block {b}: update writer {n} missing from \
                                         the sharer mask"
                                    ));
                                }
                            }
                            Access::Invalid => {}
                        }
                    }
                }
                DirState::Multi { writers, readers } => {
                    for n in 0..self.nodes {
                        let is_writer = writers & DirState::bit(n) != 0;
                        match self.tag[b][n] {
                            Access::ReadWrite if !is_writer => {
                                return Err(format!(
                                    "block {b}: node {n} is ReadWrite but not a \
                                     recorded Multi writer"
                                ));
                            }
                            Access::ReadOnly if readers & DirState::bit(n) == 0 => {
                                return Err(format!(
                                    "block {b}: node {n} is ReadOnly but not a \
                                     recorded Multi reader"
                                ));
                            }
                            _ => {}
                        }
                        if is_writer {
                            if self.tag[b][n] != Access::ReadWrite {
                                return Err(format!(
                                    "block {b}: Multi writer {n} is not ReadWrite"
                                ));
                            }
                            if self.twin[b][n].is_none() {
                                return Err(format!("block {b}: Multi writer {n} has no twin"));
                            }
                        }
                    }
                }
            }
        }
        self.check_freshness()
    }

    /// Freshness: every interval-stable word of every coherently valid
    /// copy carries the latest version. Words mid-delivery (pending) or
    /// with unflushed window writes, and copies held under an open
    /// window, are excused — the contract covers them until the
    /// flush/ready_to_recv closes the gap.
    fn check_freshness(&self) -> Result<(), String> {
        for b in 0..self.blocks() {
            if self.dirty[b] != 0 {
                continue;
            }
            if (0..self.nodes).any(|n| self.block_pending(n, b)) {
                continue;
            }
            for w in 0..WORDS {
                if self.iww[b][w] != 0 {
                    continue;
                }
                for n in 0..self.nodes {
                    if self.tag[b][n] == Access::Invalid || self.windows[b] & bit(n) != 0 {
                        continue;
                    }
                    if self.mem[b][n][w] != self.spec[b][w] {
                        return Err(format!(
                            "stale copy: node {n} holds version {} of block {b} word \
                             {w}, last write was version {}",
                            self.mem[b][n][w], self.spec[b][w]
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Canonical byte key for the visited set. Version numbers are
    /// renumbered densely (order-preserving), so states differing only
    /// in version labels collapse into one.
    pub(crate) fn canonical(&self) -> Vec<u8> {
        let mut vers: Vec<u8> = Vec::new();
        let mut note = |v: u8| {
            if v != 0 {
                vers.push(v)
            }
        };
        for b in 0..self.blocks() {
            for n in 0..self.nodes {
                for w in 0..WORDS {
                    note(self.mem[b][n][w]);
                }
                if let Some(t) = self.twin[b][n] {
                    for w in 0..WORDS {
                        note(t[w]);
                    }
                }
            }
            for w in 0..WORDS {
                note(self.spec[b][w]);
            }
        }
        for q in &self.pending {
            for &(_, exp) in q {
                for w in 0..WORDS {
                    note(exp[w]);
                }
            }
        }
        vers.sort_unstable();
        vers.dedup();
        let remap = |v: u8| -> u8 {
            if v == 0 {
                0
            } else {
                vers.binary_search(&v).unwrap() as u8 + 1
            }
        };

        let mut key = Vec::with_capacity(64);
        for b in 0..self.blocks() {
            match self.dir[b] {
                DirState::Shared { readers } => {
                    key.push(0);
                    key.extend(readers.to_le_bytes());
                }
                DirState::Excl { owner } => {
                    key.push(1);
                    key.push(owner as u8);
                }
                DirState::Multi { writers, readers } => {
                    key.push(2);
                    key.extend(writers.to_le_bytes());
                    key.extend(readers.to_le_bytes());
                }
            }
            key.extend(self.windows[b].to_le_bytes());
            key.extend(self.dirty[b].to_le_bytes());
            for w in 0..WORDS {
                key.extend(self.iww[b][w].to_le_bytes());
                key.push(remap(self.spec[b][w]));
            }
            for n in 0..self.nodes {
                key.push(match self.tag[b][n] {
                    Access::Invalid => 0,
                    Access::ReadOnly => 1,
                    Access::ReadWrite => 2,
                });
                key.push(self.ww[b][n]);
                for w in 0..WORDS {
                    key.push(remap(self.mem[b][n][w]));
                }
                match self.twin[b][n] {
                    None => key.push(0),
                    Some(t) => {
                        key.push(1);
                        for w in 0..WORDS {
                            key.push(remap(t[w]));
                        }
                    }
                }
            }
        }
        for q in &self.pending {
            key.push(q.len() as u8);
            for &(b, exp) in q {
                key.push(b as u8);
                for w in 0..WORDS {
                    key.push(remap(exp[w]));
                }
            }
        }
        key
    }
}
