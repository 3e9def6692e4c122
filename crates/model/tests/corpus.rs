//! Fuzz-corpus cross-pollination: the checker's enumerated default-only
//! op sequences seed a *deterministic* corpus of mini-HPF programs for
//! the differential fuzzer — no RNG anywhere, so every run of this test
//! checks the exact same 100 cases through `check_spec` (sequential
//! reference vs. every backend).

use fgdsm_fuzz::gen::{ArraySpec, FStmt, FuzzSpec, LoopSpec, ReadSpec};
use fgdsm_fuzz::oracle::{check_spec, check_spec_tcp};
use fgdsm_hpf::InjectConfig;
use fgdsm_model::{enumerate_sequences, ModelConfig, Op, Proto};

/// Shape features of one enumerated sequence.
#[derive(Default)]
struct Features {
    reads: usize,
    writes: usize,
    multi_writes: usize,
    releases: usize,
    word1_writes: usize,
}

fn features(seq: &[Op]) -> Features {
    let mut f = Features::default();
    for op in seq {
        match *op {
            Op::Read { .. } => f.reads += 1,
            Op::Write { w, multi, .. } => {
                f.writes += 1;
                if multi {
                    f.multi_writes += 1;
                }
                if w == 1 {
                    f.word1_writes += 1;
                }
            }
            Op::Release => f.releases += 1,
            _ => {}
        }
    }
    f
}

/// Map a sequence's features onto fuzz-spec knobs. The mapping is a
/// dimensional projection, not a simulation: reads become stencil
/// reads, multi-flavor writes select a CYCLIC (false-sharing-heavy)
/// distribution, extra releases become a reduction (an extra
/// synchronization structure), and the corpus index perturbs the array
/// extent so the 100 cases exercise different block alignments.
fn spec_from(seq: &[Op], idx: usize) -> FuzzSpec {
    let f = features(seq);
    let n_read_arrays = f.reads.clamp(1, 2);
    let mut arrays = vec![ArraySpec {
        rank2: false,
        cyclic: f.multi_writes > 0,
        index_for: None,
    }];
    for k in 0..n_read_arrays {
        arrays.push(ArraySpec {
            rank2: false,
            // Mixed distributions when the sequence had both flavors.
            cyclic: f.multi_writes > 0 && k == 0,
            index_for: None,
        });
    }
    let reads = (0..n_read_arrays)
        .map(|k| ReadSpec {
            array: k + 1,
            off: [(f.writes as i64 % 3) - 1, 0],
            via: None,
        })
        .collect();
    FuzzSpec {
        seed: idx as u64,
        nprocs: 2 + (f.reads + f.writes) % 2,
        n1: 24 + 4 * (idx % 7),
        n2: [6, 8],
        body: vec![FStmt::Loop(LoopSpec {
            write: 0,
            dist_by: None,
            self_read: f.multi_writes > 0,
            reads,
            reduce: (f.releases > 1).then_some(0),
            use_t: false,
            use_acc: f.word1_writes > 0,
            sweep_t: false,
        })],
        arrays,
        time: (f.releases > 0).then_some((0, 1, 1 + (f.releases as i64).min(2))),
        inject: InjectConfig::default(),
    }
}

/// 100 deterministic cases derived from the model's enumerated
/// sequences, each run through the cross-backend oracle.
#[test]
fn model_derived_corpus_passes_the_oracle() {
    let cfg = ModelConfig::small(Proto::Eager).with_depth(4);
    let seqs = enumerate_sequences(&cfg, 4, false, 50_000);
    assert!(!seqs.is_empty());
    let stride = (seqs.len() / 100).max(1);
    let picked: Vec<&Vec<Op>> = seqs.iter().step_by(stride).take(100).collect();
    assert_eq!(picked.len(), 100, "need a full 100-case corpus");

    let mut distinct = std::collections::BTreeSet::new();
    for (idx, seq) in picked.iter().enumerate() {
        let spec = spec_from(seq, idx);
        distinct.insert(format!("{spec:?}"));
        if let Err(d) = check_spec(&spec) {
            panic!("model-derived case {idx} diverged: {d:?}\nspec: {spec:?}");
        }
    }
    // The projection must not collapse the corpus to a handful of
    // duplicate programs.
    assert!(
        distinct.len() >= 20,
        "corpus collapsed to {} distinct specs",
        distinct.len()
    );
}

/// The same 100 model-derived cases replayed over the socket-backed
/// `tcp` backend: every case runs with each inter-node transfer framed
/// over loopback sockets to spawned `fgdsm-node` processes, bitwise
/// against the reference and byte-identical to `sm_opt[full]`'s serial
/// artifacts. Skips with a notice when the sandbox forbids sockets.
#[test]
fn model_derived_corpus_passes_the_tcp_oracle() {
    if !fgdsm_hpf::tcp_available() {
        eprintln!(
            "notice: sandbox forbids sockets; skipping model_derived_corpus_passes_the_tcp_oracle"
        );
        return;
    }
    let cfg = ModelConfig::small(Proto::Eager).with_depth(4);
    let seqs = enumerate_sequences(&cfg, 4, false, 50_000);
    let stride = (seqs.len() / 100).max(1);
    let picked: Vec<&Vec<Op>> = seqs.iter().step_by(stride).take(100).collect();
    assert_eq!(picked.len(), 100, "need a full 100-case corpus");
    for (idx, seq) in picked.iter().enumerate() {
        let spec = spec_from(seq, idx);
        if let Err(d) = check_spec_tcp(&spec) {
            panic!("model-derived case {idx} diverged over tcp: {d:?}\nspec: {spec:?}");
        }
    }
}

/// Determinism: deriving the corpus twice yields identical specs.
#[test]
fn corpus_derivation_is_deterministic() {
    let cfg = ModelConfig::small(Proto::Eager).with_depth(4);
    let a = enumerate_sequences(&cfg, 4, false, 50_000);
    let b = enumerate_sequences(&cfg, 4, false, 50_000);
    assert_eq!(a, b, "enumeration order must be stable");
    let sa = spec_from(&a[0], 0);
    let sb = spec_from(&b[0], 0);
    assert_eq!(sa, sb);
}
