//! # fgdsm-hpf: the paper's primary contribution
//!
//! A mini-HPF front end and the compiler passes of §4:
//!
//! * [`dist`] — HPF data distributions (last-dimension BLOCK/CYCLIC) and
//!   the owner relation;
//! * [`ir`] — the program representation: distributed arrays,
//!   INDEPENDENT parallel loops with affine array references, sequential
//!   time loops, reductions, and native kernels;
//! * [`analysis`] — access-set analysis: non-owner-read / non-owner-write
//!   sets per processor, split into point-to-point transfers (§4.1);
//! * [`plan`] — lowering: one pass per loop instance from sections to
//!   word runs and block ranges ([`LoopPlan`]: the default-protocol
//!   schedule and the `shmem_limits` block subsetting), and the
//!   optimization levels of Figure 4 (base / +bulk /
//!   +run-time-overhead-elimination), plus the PRE extension;
//! * [`redundancy`] — the transfer cache behind redundant-communication
//!   elimination (§4.3);
//! * [`report`] — `-Minfo`-style diagnostics of the per-loop analysis
//!   and planning decisions;
//! * [`exec`] — execution: a backend-agnostic BSP superstep driver
//!   ([`exec::engine`]) plus two pluggable communication backends
//!   behind the [`exec::backend::CommBackend`] trait — shared memory
//!   ([`exec::sm_opt`]: the default protocol alone, or with
//!   compiler-orchestrated incoherence) and message passing
//!   ([`exec::mp`]) — all over the same program. The `chan` and
//!   `tcp` configurations run the optimized backend with every transfer
//!   round-tripped through encoded wire envelopes over a channel or
//!   socket transport ([`ExecConfig::strict`] forces the same discipline,
//!   in process, on the others). Every mode is an [`ExecConfig`] value;
//!   nothing in this crate reads the process environment.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod contract;
pub mod dist;
pub mod exec;
pub mod ir;
pub mod plan;
pub mod redundancy;
pub mod report;

pub use analysis::{analyze, LoopAccess, Transfer};
pub use contract::{ContractTracker, CtlOp};
pub use dist::{ArrayDecl, ArrayId, Dist};
pub use exec::{
    execute, execute_profiled, execute_reference, execute_traced, execute_with, tcp_available,
    try_execute, Backend, ExecConfig, ExecError, InjectConfig, InspectorRow, MetricsMode,
    ParallelMode, PlannedXfer, PoolMode, ReferenceResult, RunResult, WireMode,
};
pub use ir::{
    ARef, ArrayHandle, ArrayView, CompDist, Kernel, KernelCtx, KernelFn, ParLoop, Program,
    ProgramBuilder, ReduceSpec, RefMode, Stmt, Subscript,
};
pub use plan::{covering_blocks, shmem_limits, ArrayMeta, CtlRanges, LoopPlan, OptLevel};
pub use redundancy::PreCache;
pub use report::{analyze_program, render, LoopReport, TransferReport};
