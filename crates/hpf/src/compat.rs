//! The frozen surface of the executor configuration: what `benchmark/`
//! names and nothing here reads. [`crate::ExecConfig`]'s `pool` and
//! `resolve_parallel` fields keep their places, because fgbench assigns
//! them; the type of the first lives here.

/// Read by nothing: a parallel compute phase always runs on one
/// long-lived [`fgdsm_tempest::WorkerPool`] per `execute`, and both
/// variants mean that pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PoolMode {
    #[default]
    Auto,
    Persistent,
}
