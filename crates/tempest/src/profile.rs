//! Profile artifacts: per-superstep interval stats, block heatmaps, the
//! false-sharing detector and the Chrome-trace exporter's data model.
//!
//! The paper's evaluation is an attribution exercise — Table 3
//! decomposes each app's time into compute vs. communication *per
//! program*, but §4.2/§4.3 reason about which parallel *loop* causes
//! which traffic. This module carries that attribution: the executor
//! marks superstep boundaries ([`crate::cluster::Cluster::begin_superstep`] /
//! [`crate::cluster::Cluster::end_superstep`]) and the cluster snapshots
//! every shard's folded [`NodeStats`] at each boundary, so the
//! whole-run [`ClusterReport`] decomposes exactly into per-loop
//! intervals. Block heat accumulates shard-locally inside
//! [`crate::trace::NodeTrace`], and the false-sharing detector flags
//! multi-word blocks faulted by two or more distinct nodes inside one
//! superstep — the co-residency hazard that `shmem_limits` shrinking
//! (§4.2) exists to avoid.
//!
//! Everything here is a pure function of virtual-time state: the
//! determinism suite asserts [`ClusterReport::profile_json`] is
//! byte-identical between serial and threaded runs.

use crate::stats::{ClusterReport, NodeStats};
use crate::trace::{BlockHeat, NO_STEP};
use std::collections::BTreeMap;
use std::fmt::Write;

/// The per-node stats accrued during one superstep: the difference
/// between the boundary snapshots on either side of it. The trailing
/// interval of a run (step == [`NO_STEP`]) holds whatever accrued after
/// the last superstep — final gather, the run-ending barrier.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepInterval {
    /// Superstep index ([`NO_STEP`] for the post-run tail).
    pub step: u32,
    /// IR loop that ran this superstep ([`NO_LOOP`] for the tail).
    pub loop_id: u32,
    /// Per-node stats delta, indexed by node id.
    pub nodes: Vec<NodeStats>,
}

/// A multi-word block faulted by two or more distinct nodes within one
/// superstep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FalseSharingFlag {
    /// Superstep in which the co-resident faults happened.
    pub step: u32,
    /// IR loop that ran that superstep.
    pub loop_id: u32,
    /// The contended block.
    pub block: u32,
    /// The distinct nodes that faulted on it, ascending.
    pub nodes: Vec<usize>,
}

/// One node's block heat: every block it faulted on, pushed, or sent
/// attributed payload bytes for.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeHeatmap {
    /// `(block, heat)` pairs, ascending by block.
    pub blocks: Vec<(u32, BlockHeat)>,
    /// Payload bytes sent that no call site attributed to a block.
    pub unattributed_bytes: u64,
}

/// Accumulating profile state owned by the cluster: the intervals and
/// false-sharing flags so far, plus the per-node stats snapshot taken at
/// the most recent superstep boundary.
#[derive(Clone, Debug, Default)]
pub struct ProfileState {
    pub(crate) intervals: Vec<StepInterval>,
    pub(crate) false_sharing: Vec<FalseSharingFlag>,
    pub(crate) prev: Vec<NodeStats>,
    /// Recycled `(block, node)` buffer of the false-sharing scan.
    pub(crate) fault_scratch: Vec<(u32, usize)>,
}

impl ProfileState {
    pub(crate) fn new(nprocs: usize) -> Self {
        ProfileState {
            intervals: Vec::new(),
            false_sharing: Vec::new(),
            prev: vec![NodeStats::default(); nprocs],
            fault_scratch: Vec::new(),
        }
    }
}

/// One row of the per-loop breakdown: every interval of one IR loop,
/// summed over supersteps and nodes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopRow {
    /// IR loop id ([`NO_LOOP`] for the catch-all outside-loops row).
    pub loop_id: u32,
    /// How many supersteps executed this loop.
    pub supersteps: u64,
    /// Cluster-summed stats accrued across those supersteps.
    pub total: NodeStats,
}

impl ClusterReport {
    /// Canonical JSON encoding of the profile artifacts — intervals,
    /// false-sharing flags and heatmaps. Like [`ClusterReport::to_json`]
    /// it is a pure function of virtual-time state: the determinism
    /// suite compares it byte-for-byte between serial and threaded runs.
    pub fn profile_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"intervals\":[");
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"step\":{},\"loop\":{},\"nodes\":[",
                iv.step, iv.loop_id
            )
            .unwrap();
            for (n, d) in iv.nodes.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                d.write_json(&mut out);
            }
            out.push_str("]}");
        }
        out.push_str("],\"false_sharing\":[");
        for (i, f) in self.false_sharing.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"step\":{},\"loop\":{},\"block\":{},\"nodes\":[",
                f.step, f.loop_id, f.block
            )
            .unwrap();
            for (n, id) in f.nodes.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                write!(out, "{id}").unwrap();
            }
            out.push_str("]}");
        }
        out.push_str("],\"heatmaps\":[");
        for (n, hm) in self.heatmaps.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"node\":{n},\"unattributed_bytes\":{},\"blocks\":[",
                hm.unattributed_bytes
            )
            .unwrap();
            for (i, (b, h)) in hm.blocks.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(
                    out,
                    "{{\"block\":{b},\"read_misses\":{},\"write_misses\":{},\"upgrades\":{},\
                     \"pushed\":{},\"bytes_sent\":{}}}",
                    h.read_misses, h.write_misses, h.upgrades, h.pushed, h.bytes_sent
                )
                .unwrap();
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// The profile's structural invariants, asserted by the executors
    /// after every run (and therefore exercised by the fuzz harness on
    /// every generated program):
    ///
    /// 1. the per-superstep interval deltas sum *exactly* to the
    ///    whole-run per-node stats — no event double-counted or lost at
    ///    a snapshot boundary;
    /// 2. each node's heatmap fault totals match its `read_misses` /
    ///    `write_misses` counters, its pushed total matches
    ///    `blocks_pushed`, and attributed + unattributed bytes match
    ///    `bytes_sent`.
    pub fn check_profile_invariants(&self) -> Result<(), String> {
        let mut sums = vec![NodeStats::default(); self.nodes.len()];
        for iv in &self.intervals {
            if iv.nodes.len() != self.nodes.len() {
                return Err(format!(
                    "interval step {} has {} node deltas, cluster has {} nodes",
                    iv.step,
                    iv.nodes.len(),
                    self.nodes.len()
                ));
            }
            for (acc, d) in sums.iter_mut().zip(&iv.nodes) {
                acc.accumulate(d);
            }
        }
        for (n, (acc, whole)) in sums.iter().zip(&self.nodes).enumerate() {
            let mut err = None;
            acc.for_each_field(|name, got| {
                if err.is_none() {
                    let mut want = 0;
                    whole.for_each_field(|wn, wv| {
                        if wn == name {
                            want = wv;
                        }
                    });
                    if got != want {
                        err = Some(format!(
                            "node {n}: interval sum of {name} = {got}, whole-run = {want}"
                        ));
                    }
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
        if self.heatmaps.len() != self.nodes.len() {
            return Err(format!(
                "{} heatmaps for {} nodes",
                self.heatmaps.len(),
                self.nodes.len()
            ));
        }
        for (n, (hm, s)) in self.heatmaps.iter().zip(&self.nodes).enumerate() {
            let read: u64 = hm.blocks.iter().map(|(_, h)| h.read_misses).sum();
            let write: u64 = hm.blocks.iter().map(|(_, h)| h.write_misses).sum();
            let pushed: u64 = hm.blocks.iter().map(|(_, h)| h.pushed).sum();
            let bytes: u64 = hm.blocks.iter().map(|(_, h)| h.bytes_sent).sum();
            if read != s.read_misses {
                return Err(format!(
                    "node {n}: heatmap read misses {read} != counter {}",
                    s.read_misses
                ));
            }
            if write != s.write_misses {
                return Err(format!(
                    "node {n}: heatmap write misses {write} != counter {}",
                    s.write_misses
                ));
            }
            if pushed != s.blocks_pushed {
                return Err(format!(
                    "node {n}: heatmap pushed {pushed} != counter {}",
                    s.blocks_pushed
                ));
            }
            if bytes + hm.unattributed_bytes != s.bytes_sent {
                return Err(format!(
                    "node {n}: heatmap bytes {bytes} + unattributed {} != bytes_sent {}",
                    hm.unattributed_bytes, s.bytes_sent
                ));
            }
        }
        Ok(())
    }

    /// Fold the intervals into one row per IR loop (cluster-summed),
    /// ascending by loop id with the outside-loops catch-all
    /// ([`NO_LOOP`]) last. By invariant 1 of
    /// [`ClusterReport::check_profile_invariants`], summing every row
    /// field reproduces the cluster-summed whole-run counters.
    pub fn loop_table(&self) -> Vec<LoopRow> {
        let mut rows: BTreeMap<u32, LoopRow> = BTreeMap::new();
        for iv in &self.intervals {
            let row = rows.entry(iv.loop_id).or_insert_with(|| LoopRow {
                loop_id: iv.loop_id,
                ..Default::default()
            });
            if iv.step != NO_STEP {
                row.supersteps += 1;
            }
            for d in &iv.nodes {
                row.total.accumulate(d);
            }
        }
        rows.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NO_LOOP;

    fn interval(step: u32, loop_id: u32, compute: &[u64]) -> StepInterval {
        StepInterval {
            step,
            loop_id,
            nodes: compute
                .iter()
                .map(|&c| NodeStats {
                    compute_ns: c,
                    ..Default::default()
                })
                .collect(),
        }
    }

    fn report() -> ClusterReport {
        ClusterReport {
            nodes: vec![
                NodeStats {
                    compute_ns: 30,
                    ..Default::default()
                },
                NodeStats {
                    compute_ns: 3,
                    ..Default::default()
                },
            ],
            intervals: vec![
                interval(0, 0, &[10, 1]),
                interval(1, 1, &[20, 2]),
                interval(NO_STEP, NO_LOOP, &[0, 0]),
            ],
            heatmaps: vec![NodeHeatmap::default(), NodeHeatmap::default()],
            ..Default::default()
        }
    }

    #[test]
    fn invariants_hold_and_detect_drift() {
        let mut r = report();
        assert!(r.check_profile_invariants().is_ok());
        r.nodes[0].compute_ns += 1; // a counter the intervals never saw
        let err = r.check_profile_invariants().unwrap_err();
        assert!(err.contains("compute_ns"), "got: {err}");
    }

    #[test]
    fn heatmap_invariants_detect_unattributed_drift() {
        let mut r = report();
        r.nodes[1].bytes_sent = 64; // sent bytes neither view saw
        r.intervals[2].nodes[1].bytes_sent = 64; // intervals now agree
        let err = r.check_profile_invariants().unwrap_err();
        assert!(err.contains("bytes"), "got: {err}");
        r.heatmaps[1].unattributed_bytes = 64;
        assert!(r.check_profile_invariants().is_ok());
    }

    #[test]
    fn loop_table_folds_by_loop_with_tail_last() {
        let mut r = report();
        r.intervals.push(interval(2, 0, &[5, 5]));
        r.nodes[0].compute_ns += 5;
        r.nodes[1].compute_ns += 5;
        let rows = r.loop_table();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].loop_id, 0);
        assert_eq!(rows[0].supersteps, 2);
        assert_eq!(rows[0].total.compute_ns, 21);
        assert_eq!(rows[1].loop_id, 1);
        assert_eq!(rows[2].loop_id, NO_LOOP);
        assert_eq!(rows[2].supersteps, 0, "tail interval is not a superstep");
        let total: u64 = rows.iter().map(|r| r.total.compute_ns).sum();
        let whole: u64 = r
            .intervals
            .iter()
            .flat_map(|iv| &iv.nodes)
            .map(|n| n.compute_ns)
            .sum();
        assert_eq!(total, whole, "rows decompose the whole run");
        assert_eq!(total, 43);
    }

    #[test]
    fn profile_json_shape() {
        let mut r = report();
        r.false_sharing.push(FalseSharingFlag {
            step: 1,
            loop_id: 1,
            block: 42,
            nodes: vec![0, 1],
        });
        r.heatmaps[0].blocks.push((
            7,
            BlockHeat {
                read_misses: 2,
                ..Default::default()
            },
        ));
        let j = r.profile_json();
        assert!(j.starts_with("{\"intervals\":["));
        assert!(j.contains("\"step\":0,\"loop\":0"));
        assert!(
            j.contains("\"false_sharing\":[{\"step\":1,\"loop\":1,\"block\":42,\"nodes\":[0,1]}]")
        );
        assert!(j.contains("\"heatmaps\":[{\"node\":0,"));
        assert!(j.contains("\"block\":7,\"read_misses\":2"));
        assert!(j.ends_with("]}"));
    }
}
