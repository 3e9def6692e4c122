//! Bounded exhaustive exploration of the abstract model.
//!
//! [`check`] runs a breadth-first closure over every interleaving of
//! resolve-phase ops up to a configured depth, canonicalizing states so
//! that runs differing only in version labels collapse. BFS order means
//! the first violation found carries a minimal counterexample trace.

use crate::absmodel::{AbsState, Mutation, Op, Proto, WORDS};
use std::collections::HashMap;

/// One model configuration to close.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    pub nodes: usize,
    pub blocks: usize,
    pub proto: Proto,
    /// Maximum op-sequence length explored.
    pub depth: usize,
    /// Seeded bug, or [`Mutation::None`] for the correctness run.
    pub mutation: Mutation,
}

impl ModelConfig {
    /// The tier-1 default: 2 nodes, 1 block, [`DEFAULT_DEPTH`].
    pub fn small(proto: Proto) -> Self {
        ModelConfig {
            nodes: 2,
            blocks: 1,
            proto,
            depth: DEFAULT_DEPTH,
            mutation: Mutation::None,
        }
    }

    pub fn with_mutation(mut self, m: Mutation) -> Self {
        self.mutation = m;
        self
    }

    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    pub fn with_blocks(mut self, blocks: usize) -> Self {
        self.blocks = blocks;
        self
    }

    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }
}

/// Default exploration depth of the tier-1 closure.
pub const DEFAULT_DEPTH: usize = 6;

/// A safety violation, with the minimal op interleaving that reaches it.
#[derive(Clone, Debug)]
pub struct Violation {
    pub config: ModelConfig,
    pub trace: Vec<Op>,
    pub message: String,
}

impl Violation {
    /// Human-readable counterexample: the configuration, the violated
    /// property, and the interleaving step by step.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "counterexample ({} nodes, {} block(s), {:?}, mutation {}):\n",
            self.config.nodes,
            self.config.blocks,
            self.config.proto,
            self.config.mutation.name(),
        ));
        for (i, op) in self.trace.iter().enumerate() {
            out.push_str(&format!("  {:>2}. {op}\n", i + 1));
        }
        out.push_str(&format!("  => {}\n", self.message));
        out
    }

    /// A standalone `#[test]` that replays this counterexample — paste
    /// it into any crate depending on `fgdsm-model` and it fails until
    /// the underlying bug is fixed (or passes forever once it is a
    /// regression guard for a seeded mutation).
    pub fn reproducer(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "/// Auto-generated from a model-checker counterexample.\n\
             /// Property violated: {}\n\
             #[test]\n\
             fn model_counterexample_{}() {{\n\
             \x20   use fgdsm_model::{{replay, ModelConfig, Mutation, Op, Proto}};\n\
             \x20   let cfg = ModelConfig {{\n\
             \x20       nodes: {},\n\
             \x20       blocks: {},\n\
             \x20       proto: Proto::{:?},\n\
             \x20       depth: {},\n\
             \x20       mutation: Mutation::{:?},\n\
             \x20   }};\n\
             \x20   let ops: Vec<Op> = [\n",
            self.message.replace('\n', " "),
            self.config.mutation.name(),
            self.config.nodes,
            self.config.blocks,
            self.config.proto,
            self.config.depth,
            self.config.mutation,
        ));
        for op in &self.trace {
            out.push_str(&format!("        \"{op}\",\n"));
        }
        out.push_str(
            "    ]\n\
             \x20   .iter()\n\
             \x20   .map(|s| s.parse().unwrap())\n\
             \x20   .collect();\n\
             \x20   replay(&cfg, &ops).expect_err(\"interleaving must be rejected\");\n\
             }\n",
        );
        out
    }
}

/// Result of one closure run.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Distinct canonical states visited.
    pub states: usize,
    /// Transitions (eligible op applications) taken.
    pub transitions: usize,
    /// First violation found (with a minimal trace), if any.
    pub violation: Option<Violation>,
    /// True when the closure completed with no violation.
    pub closed: bool,
}

/// Every op that could be attempted in a configuration (eligibility is
/// decided per-state by `AbsState::apply`).
fn candidate_ops(cfg: &ModelConfig) -> Vec<Op> {
    let mut ops = Vec::new();
    for p in 0..cfg.nodes {
        for b in 0..cfg.blocks {
            ops.push(Op::Read { p, b });
            for w in 0..WORDS {
                ops.push(Op::Write {
                    p,
                    b,
                    w,
                    multi: false,
                });
                if cfg.proto == Proto::Eager {
                    ops.push(Op::Write {
                        p,
                        b,
                        w,
                        multi: true,
                    });
                }
            }
        }
    }
    ops.push(Op::Release);
    if cfg.proto == Proto::Eager {
        for b in 0..cfg.blocks {
            for o in 0..cfg.nodes {
                ops.push(Op::MkWritable { o, b });
                ops.push(Op::ImplicitWritable { r: o, b });
                ops.push(Op::ImplicitInvalidate { r: o, b });
                for r in 0..cfg.nodes {
                    if r != o {
                        ops.push(Op::SendRange { o, r, b });
                        ops.push(Op::FlushRange { f: r, o, b });
                    }
                }
            }
        }
        for r in 0..cfg.nodes {
            ops.push(Op::ReadyToRecv { r });
        }
    }
    ops
}

/// Exhaustively close the state space of `cfg`. Stops at the first
/// violation; BFS order guarantees its trace is minimal.
pub fn check(cfg: &ModelConfig) -> CheckOutcome {
    let ops = candidate_ops(cfg);
    let init = AbsState::initial(cfg.nodes, cfg.blocks);

    // Arena of visited states with back-pointers for trace recovery.
    let mut arena: Vec<AbsState> = vec![init.clone()];
    let mut parent: Vec<Option<(u32, Op)>> = vec![None];
    let mut depth: Vec<u32> = vec![0];
    let mut visited: HashMap<Vec<u8>, u32> = HashMap::new();
    visited.insert(init.canonical(), 0);

    let trace_to = |arena_parent: &[Option<(u32, Op)>], mut idx: u32, last: Option<Op>| {
        let mut trace = Vec::new();
        if let Some(op) = last {
            trace.push(op);
        }
        while let Some((prev, op)) = arena_parent[idx as usize] {
            trace.push(op);
            idx = prev;
        }
        trace.reverse();
        trace
    };

    if let Err(message) = init.check_invariants(cfg.proto) {
        return CheckOutcome {
            states: 1,
            transitions: 0,
            violation: Some(Violation {
                config: *cfg,
                trace: Vec::new(),
                message,
            }),
            closed: false,
        };
    }

    let mut transitions = 0usize;
    let mut frontier = 0usize;
    while frontier < arena.len() {
        let idx = frontier as u32;
        frontier += 1;
        if depth[idx as usize] as usize >= cfg.depth {
            continue;
        }
        for &op in &ops {
            let next = match arena[idx as usize].apply(cfg.proto, op, cfg.mutation) {
                Ok(None) => continue,
                Ok(Some(next)) => next,
                Err(message) => {
                    return CheckOutcome {
                        states: arena.len(),
                        transitions,
                        violation: Some(Violation {
                            config: *cfg,
                            trace: trace_to(&parent, idx, Some(op)),
                            message,
                        }),
                        closed: false,
                    };
                }
            };
            transitions += 1;
            if let Err(message) = next.check_invariants(cfg.proto) {
                return CheckOutcome {
                    states: arena.len(),
                    transitions,
                    violation: Some(Violation {
                        config: *cfg,
                        trace: trace_to(&parent, idx, Some(op)),
                        message,
                    }),
                    closed: false,
                };
            }
            let key = next.canonical();
            if visited.contains_key(&key) {
                continue;
            }
            let new_idx = arena.len() as u32;
            visited.insert(key, new_idx);
            arena.push(next);
            parent.push(Some((idx, op)));
            depth.push(depth[idx as usize] + 1);
        }
    }

    CheckOutcome {
        states: arena.len(),
        transitions,
        violation: None,
        closed: true,
    }
}

/// Replay a recorded op sequence. `Err` carries the violation; an op
/// that is not even eligible is also reported as a violation (a recorded
/// trace must replay exactly).
pub fn replay(cfg: &ModelConfig, ops: &[Op]) -> Result<AbsState, Violation> {
    let mut st = AbsState::initial(cfg.nodes, cfg.blocks);
    for (i, &op) in ops.iter().enumerate() {
        let fail = |message: String| Violation {
            config: *cfg,
            trace: ops[..=i].to_vec(),
            message,
        };
        match st.apply(cfg.proto, op, cfg.mutation) {
            Ok(Some(next)) => st = next,
            Ok(None) => {
                return Err(fail(format!("step {}: op `{op}` is not eligible", i + 1)));
            }
            Err(message) => return Err(fail(message)),
        }
        if let Err(message) = st.check_invariants(cfg.proto) {
            return Err(fail(message));
        }
    }
    Ok(st)
}

/// Enumerate complete legal op sequences of exactly `len` steps under
/// the unmutated model, depth-first, up to `cap` sequences. With
/// `include_ctl` false only default-protocol ops (reads, writes,
/// releases) are used — the corpus the fuzz bridge and the pure-protocol
/// invisibility replays consume.
pub fn enumerate_sequences(
    cfg: &ModelConfig,
    len: usize,
    include_ctl: bool,
    cap: usize,
) -> Vec<Vec<Op>> {
    let ops: Vec<Op> = candidate_ops(cfg)
        .into_iter()
        .filter(|op| include_ctl || !op.is_ctl())
        .collect();
    let mut out = Vec::new();
    let mut prefix = Vec::new();
    let init = AbsState::initial(cfg.nodes, cfg.blocks);
    dfs(cfg, &ops, &init, len, cap, &mut prefix, &mut out);
    out
}

fn dfs(
    cfg: &ModelConfig,
    ops: &[Op],
    st: &AbsState,
    remaining: usize,
    cap: usize,
    prefix: &mut Vec<Op>,
    out: &mut Vec<Vec<Op>>,
) {
    if out.len() >= cap {
        return;
    }
    if remaining == 0 {
        out.push(prefix.clone());
        return;
    }
    for &op in ops {
        let Ok(Some(next)) = st.apply(cfg.proto, op, Mutation::None) else {
            continue;
        };
        prefix.push(op);
        dfs(cfg, ops, &next, remaining - 1, cap, prefix, out);
        prefix.pop();
        if out.len() >= cap {
            return;
        }
    }
}

/// The contract-bypass invisibility theorem, checked on sampled
/// witnesses: take a legal interleaving that *uses* the ctl primitives,
/// close it out (flush dirty windows, drain deliveries, close windows,
/// release), and confirm the authoritative copies match the sequential
/// reference; then erase every ctl op and replay the rest under the
/// pure default protocol and confirm it produces the *same* sequential
/// reference and matching authoritative copies. Returns the number of
/// witnesses verified (callers assert it is positive).
pub fn contract_invisibility(cfg: &ModelConfig, len: usize, sample: usize) -> usize {
    assert_eq!(
        cfg.mutation,
        Mutation::None,
        "invisibility is a clean-model property"
    );
    let seqs = enumerate_sequences(cfg, len, true, 50_000);
    let with_ctl: Vec<&Vec<Op>> = seqs.iter().filter(|s| s.iter().any(Op::is_ctl)).collect();
    let stride = (with_ctl.len() / sample).max(1);
    let mut verified = 0;

    'witness: for seq in with_ctl.iter().step_by(stride) {
        let Ok(st) = replay(cfg, seq) else {
            panic!("legal enumerated sequence failed to replay");
        };
        // Close out the ctl machinery so every block has one
        // authoritative copy again.
        let Some(final_ctl) = close_out(cfg, st) else {
            continue; // close-out not expressible from here; skip witness
        };
        assert_authoritative_matches_spec(&final_ctl, "ctl run");

        // Erase the ctl ops; replay pure. Reads may become ineligible
        // (the pure run keeps copies valid longer) and are dropped, but
        // a witness whose *writes* cannot replay is discarded — version
        // numbering must line up for the comparison below.
        let mut pure = AbsState::initial(cfg.nodes, cfg.blocks);
        for &op in seq.iter().filter(|op| !op.is_ctl()) {
            match pure.apply(cfg.proto, op, Mutation::None) {
                Ok(Some(next)) => pure = next,
                Ok(None) => match op {
                    Op::Read { .. } | Op::Release => continue,
                    _ => continue 'witness,
                },
                Err(e) => panic!("pure replay of erased witness violated safety: {e}"),
            }
        }
        let Ok(Some(pure)) = pure.apply(cfg.proto, Op::Release, Mutation::None) else {
            panic!("pure release must always be eligible");
        };
        assert_eq!(
            final_ctl.spec, pure.spec,
            "erasing the ctl ops changed the sequential outcome"
        );
        assert_authoritative_matches_spec(&pure, "pure run");
        verified += 1;
    }
    verified
}

/// Drive a post-witness state to quiescence: flush every dirty window,
/// drain pending deliveries, close every window, release. Returns
/// `None` when some step is ineligible (e.g. a dirty flush whose
/// un-written words are stale — the contract requires a send first).
fn close_out(cfg: &ModelConfig, mut st: AbsState) -> Option<AbsState> {
    for b in 0..st.blocks() {
        let fgdsm_protocol::DirState::Excl { owner } = st.dir[b] else {
            continue;
        };
        for f in 0..st.nodes {
            if st.dirty[b] & (1 << f) != 0 {
                st = st
                    .apply(cfg.proto, Op::FlushRange { f, o: owner, b }, Mutation::None)
                    .expect("close-out flush must not violate safety")?;
            }
        }
    }
    for r in 0..st.nodes {
        if !st.pending[r].is_empty() {
            st = st
                .apply(cfg.proto, Op::ReadyToRecv { r }, Mutation::None)
                .expect("close-out ready_to_recv must not violate safety")?;
        }
    }
    for b in 0..st.blocks() {
        for r in 0..st.nodes {
            if st.windows[b] & (1 << r) != 0 {
                st = st
                    .apply(cfg.proto, Op::ImplicitInvalidate { r, b }, Mutation::None)
                    .expect("close-out invalidate must not violate safety")?;
            }
        }
    }
    st.apply(cfg.proto, Op::Release, Mutation::None)
        .expect("close-out release must not violate safety")
}

fn assert_authoritative_matches_spec(st: &AbsState, what: &str) {
    for b in 0..st.blocks() {
        let holder = match st.dir[b] {
            fgdsm_protocol::DirState::Excl { owner } => owner,
            fgdsm_protocol::DirState::Shared { .. } => st.home(b),
            fgdsm_protocol::DirState::Multi { .. } => {
                panic!("{what}: Multi block survived a release")
            }
        };
        assert_eq!(
            st.mem[b][holder], st.spec[b],
            "{what}: authoritative copy of block {b} (node {holder}) diverges from \
             the sequential reference"
        );
    }
}
