//! Wall-clock telemetry: counters and log2-bucketed latency histograms
//! with a deterministic binary export.
//!
//! The simulator's canonical artifacts (report, trace, profile) are pure
//! functions of *virtual* time and must stay byte-identical run-over-run;
//! host nanoseconds may only ever appear in clearly wall-clock side
//! channels (`wall_ns`, `wire_route_ns`). This module is that
//! side channel grown into a real instrument: per-frame-kind latency
//! histograms recorded on both sides of a socket (deterministic in
//! *shape* — key order, field order — while the recorded nanoseconds are
//! of course wall-clock measurements).
//!
//! Everything here is std-only and allocation-free on the metered path: a
//! [`Histogram`] is a fixed 65-slot array (one slot per power-of-two
//! bucket), a process's [`Telemetry`] is a `(stage, class)` table of them
//! indexed by enum and kind byte, and the table round-trips through a
//! fixed-shape binary blob so `fgdsm-node` workers can ship it home in
//! `ByeStats`. Keys are strings only where a report iterates a
//! [`MetricsRegistry`].

use crate::cursor::{Cursor, Truncated};
use std::fmt::Write as _;

/// Number of histogram buckets: slot 0 holds exact zeros, slot `k`
/// (1..=64) holds values in `[2^(k-1), 2^k)` — slot 64 therefore
/// saturates at `u64::MAX`.
pub(crate) const HIST_BUCKETS: usize = 65;

/// Version tag of a table's binary wire blob. Both ends are always the
/// same build, so a layout change bumps it and nothing reads the old one.
pub(crate) const METRICS_BLOB_VERSION: u16 = 2;

/// The frame kinds a table keeps apart: the five of [`class_name`] plus
/// `unknown`, where every kind byte above 4 lands.
const CLASSES: usize = 6;

/// The stages a table times, one histogram row each.
const STAGES: usize = 6;

/// The exact largest blob [`Telemetry::to_bytes`] writes: version, the
/// two counter rows, and every histogram's header and bucket count with
/// all 65 `(bucket, count)` pairs.
pub const METRICS_BLOB_MAX: usize =
    2 + 2 * CLASSES * 8 + STAGES * CLASSES * (33 + HIST_BUCKETS * 9);

/// The five frame kinds by kind byte (the wire's v1 layout), as they
/// appear in metric keys (`coord.route.push`, `node2.apply.diff`, …).
pub fn class_name(kind: u8) -> &'static str {
    match kind {
        0 => "push",
        1 => "flush",
        2 => "copy",
        3 => "diff",
        4 => "strided",
        _ => "unknown",
    }
}

/// A table column: the kind byte, clamped to `unknown`.
fn class(kind: u8) -> usize {
    usize::from(kind).min(CLASSES - 1)
}

/// A stage of a frame's trip that a histogram times. The coordinator
/// records `Encode`, `Route`, `Decode` and `Apply`; a worker records
/// `Recv` (frame in hand → decoded), `Apply` and `Reencode`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    Encode,
    Route,
    Decode,
    Apply,
    Recv,
    Reencode,
}

impl Stage {
    /// Every stage, in table (and blob) order.
    pub const ALL: [Stage; STAGES] = [
        Stage::Encode,
        Stage::Route,
        Stage::Decode,
        Stage::Apply,
        Stage::Recv,
        Stage::Reencode,
    ];

    /// The stage's name in metric keys.
    pub fn name(self) -> &'static str {
        ["encode", "route", "decode", "apply", "recv", "reencode"][self as usize]
    }
}

/// A log2-bucketed latency histogram over `u64` nanoseconds.
///
/// Percentiles are reported as the *upper bound* of the smallest bucket
/// whose cumulative count reaches the rank `ceil(p × count)`: a
/// deliberately conservative definition that never under-reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    /// Saturating sum — a pathological series of `u64::MAX` samples must
    /// not wrap the aggregate.
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: 0 for 0, else 64 − leading_zeros, i.e.
    /// the bit width of the value.
    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket (what percentiles report).
    fn bucket_upper(k: usize) -> u64 {
        if k >= 64 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 with no samples.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 with no samples.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile (0.0 < p ≤ 1.0) as the upper bound of the
    /// smallest bucket whose cumulative count reaches `ceil(p × count)`.
    /// Returns 0 for an empty histogram. The bound is a pure function of
    /// bucket occupancy, *not* clamped to `max()`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper(k);
            }
        }
        Self::bucket_upper(HIST_BUCKETS - 1)
    }

    /// `count,sum,min,max : u64`, then `nonzero:u8` sparse
    /// `(bucket:u8, count:u64)` pairs in ascending bucket order.
    fn encode(&self, out: &mut Vec<u8>) {
        for v in [self.count, self.sum, self.min, self.max] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(self.counts.iter().filter(|&&c| c != 0).count() as u8);
        for (k, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                out.push(k as u8);
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }

    /// Total decode of [`Histogram::encode`]: buckets must be strictly
    /// ascending and sum (without wrapping) to the header's count, and
    /// the header must be one [`Histogram::record`] could have left —
    /// `min`/`max` in the lowest/highest occupied bucket, or the empty
    /// histogram's exactly.
    fn decode(c: &mut Cursor) -> Result<Histogram, String> {
        let cut = |Truncated(at)| format!("metrics blob truncated at offset {at}");
        let mut h = Histogram::new();
        h.count = c.u64().map_err(cut)?;
        h.sum = c.u64().map_err(cut)?;
        h.min = c.u64().map_err(cut)?;
        h.max = c.u64().map_err(cut)?;
        let nonzero = c.u8().map_err(cut)?;
        let mut total = 0u64;
        let mut next_bucket = 0usize;
        for _ in 0..nonzero {
            let k = c.u8().map_err(cut)? as usize;
            if k >= HIST_BUCKETS {
                return Err(format!("histogram bucket {k} out of range"));
            }
            if k < next_bucket {
                return Err(format!("histogram bucket {k} repeated or out of order"));
            }
            next_bucket = k + 1;
            h.counts[k] = c.u64().map_err(cut)?;
            total = total
                .checked_add(h.counts[k])
                .ok_or("histogram bucket counts overflow")?;
        }
        if total != h.count {
            return Err(format!(
                "histogram bucket counts sum to {total}, header says {}",
                h.count
            ));
        }
        let occupied = |k: &usize| h.counts[*k] != 0;
        let honest = match (
            (0..HIST_BUCKETS).find(occupied),
            (0..HIST_BUCKETS).rfind(occupied),
        ) {
            (Some(lo), Some(hi)) => {
                h.min <= h.max && Self::bucket(h.min) == lo && Self::bucket(h.max) == hi
            }
            _ => h == Histogram::new(),
        };
        if !honest {
            return Err(format!(
                "histogram header (count {}, sum {}, min {}, max {}) disagrees with its buckets",
                h.count, h.sum, h.min, h.max
            ));
        }
        Ok(h)
    }
}

/// One process's wall-clock telemetry: per class a frame counter, a
/// payload-byte counter and one latency histogram per [`Stage`]. The
/// metered path indexes arrays by stage and kind byte; no key is a
/// string until [`MetricsRegistry::iter`] spells one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Telemetry {
    frames: [u64; CLASSES],
    payload_bytes: [u64; CLASSES],
    /// Stage-major: `hist[stage][class]`.
    hist: [[Histogram; CLASSES]; STAGES],
}

impl Telemetry {
    /// Record one `stage` sample for a frame of `kind`.
    pub fn record(&mut self, stage: Stage, kind: u8, ns: u64) {
        self.hist[stage as usize][class(kind)].record(ns);
    }

    /// Count one frame of `kind` carrying `payload` bytes.
    pub fn count(&mut self, kind: u8, payload: u64) {
        self.frames[class(kind)] += 1;
        self.payload_bytes[class(kind)] += payload;
    }

    /// Frames of `kind` counted.
    pub fn frames(&self, kind: u8) -> u64 {
        self.frames[class(kind)]
    }

    /// Payload bytes of `kind` counted.
    pub fn payload_bytes(&self, kind: u8) -> u64 {
        self.payload_bytes[class(kind)]
    }

    /// Payload bytes counted over every class (saturating: a worker's
    /// counters arrive from a socket).
    pub fn payload_total(&self) -> u64 {
        self.payload_bytes
            .iter()
            .fold(0, |a, &b| a.saturating_add(b))
    }

    /// The `stage` histogram of `kind`'s class.
    pub fn hist(&self, stage: Stage, kind: u8) -> &Histogram {
        &self.hist[stage as usize][class(kind)]
    }

    /// Whether nothing was counted or recorded.
    pub fn is_empty(&self) -> bool {
        *self == Telemetry::default()
    }

    /// The `<tag>.<stage|counter>.<class>` entries of every non-zero
    /// counter and non-empty histogram.
    fn entries<'a>(&'a self, tag: &str, out: &mut Vec<(String, Metric<'a>)>) {
        for c in 0..CLASSES {
            let class = class_name(c as u8);
            for (name, v) in [
                ("frames", self.frames[c]),
                ("payload_bytes", self.payload_bytes[c]),
            ] {
                if v != 0 {
                    out.push((format!("{tag}.{name}.{class}"), Metric::Counter(v)));
                }
            }
            for s in Stage::ALL {
                let h = &self.hist[s as usize][c];
                if h.count != 0 {
                    out.push((format!("{tag}.{}.{class}", s.name()), Metric::Hist(h)));
                }
            }
        }
    }

    /// Fixed-shape binary blob for shipping a table inside a control
    /// frame. Layout (all little-endian): `version:u16`, the six `frames`
    /// then the six `payload_bytes` counters as `u64`, then the 36
    /// histograms stage-major, each `count,sum,min,max : u64` plus
    /// `nonzero:u8` sparse `(bucket:u8, count:u64)` pairs. Never longer
    /// than [`METRICS_BLOB_MAX`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = METRICS_BLOB_VERSION.to_le_bytes().to_vec();
        for v in self.frames.iter().chain(&self.payload_bytes) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for h in self.hist.iter().flatten() {
            h.encode(&mut out);
        }
        out
    }

    /// Total decode of [`to_bytes`](Self::to_bytes) — the blob arrives
    /// from a worker socket: every histogram is checked
    /// (`Histogram::decode`), truncation and trailing bytes are
    /// rejected.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        let cut = |Truncated(at)| format!("metrics blob truncated at offset {at}");
        let mut c = Cursor::new(buf);
        let version = c.u16().map_err(cut)?;
        if version != METRICS_BLOB_VERSION {
            return Err(format!("metrics blob version {version} unsupported"));
        }
        let mut t = Telemetry::default();
        for v in t.frames.iter_mut().chain(&mut t.payload_bytes) {
            *v = c.u64().map_err(cut)?;
        }
        for h in t.hist.iter_mut().flatten() {
            *h = Histogram::decode(&mut c)?;
        }
        match c.remaining() {
            0 => Ok(t),
            n => Err(format!("{n} trailing bytes after metrics blob")),
        }
    }
}

/// One entry of [`MetricsRegistry::iter`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Metric<'a> {
    Counter(u64),
    Hist(&'a Histogram),
}

impl<'a> Metric<'a> {
    /// The histogram, if this is one.
    pub fn as_hist(&self) -> Option<&'a Histogram> {
        match self {
            Metric::Hist(h) => Some(h),
            _ => None,
        }
    }
}

/// A run's telemetry: the coordinator's table plus one per worker
/// that reported.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsRegistry {
    coord: Box<Telemetry>,
    /// Ascending by node, one table each.
    nodes: Vec<(u32, Telemetry)>,
}

impl MetricsRegistry {
    /// The coordinator's table and one `(node, table)` per reporting
    /// worker, ascending by node.
    pub fn new(coord: Box<Telemetry>, nodes: Vec<(u32, Telemetry)>) -> Self {
        MetricsRegistry { coord, nodes }
    }

    /// The coordinator's table.
    pub fn coord(&self) -> &Telemetry {
        &self.coord
    }

    /// Every reporting worker's table, ascending by node.
    pub fn nodes(&self) -> impl Iterator<Item = (u32, &Telemetry)> {
        self.nodes.iter().map(|(n, t)| (*n, t))
    }

    /// Every non-zero counter and non-empty histogram under its dotted
    /// key — `coord.<stage|counter>.<class>` for the coordinator,
    /// `node<i>.…` per worker — ascending by key. The one place keys are
    /// spelled: a report's, not the metered path's.
    pub fn iter(&self) -> impl Iterator<Item = (String, Metric<'_>)> {
        let mut out = Vec::new();
        self.coord.entries("coord", &mut out);
        for (n, t) in &self.nodes {
            t.entries(&format!("node{n}"), &mut out);
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out.into_iter()
    }
}

/// One link-level batch as the coordinator's transport saw it: `frames`
/// frames (`bytes` in all) flushed to worker `dst` in one write and
/// echoed back verified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireSpan {
    pub dst: u32,
    /// When the write began, in ns since the transport was built.
    pub start_ns: u64,
    /// Wall time the coordinator spent blocked on this batch: writing
    /// it, then waiting for and checking its echo — not the (longer)
    /// time it was in flight while the coordinator went on working.
    pub dur_ns: u64,
    pub frames: u32,
    pub bytes: u64,
}

/// Splice wall-clock socket-batch spans into a virtual-clock Chrome
/// trace: the base trace's events stay on `pid:0` ("coordinator —
/// virtual time"), each worker process gets its own pid track
/// (`pid = dst + 1`) carrying `ph:"X"` spans for its socket batches,
/// and `ph:"M"` `process_name` metadata labels every track. The result
/// is one JSON array loadable in Perfetto.
pub fn merge_chrome(base: &str, spans: &[WireSpan]) -> String {
    let trimmed = base.trim_end();
    let body = trimmed
        .strip_suffix(']')
        .unwrap_or(trimmed)
        .trim_end()
        .to_string();
    let mut out = body;
    let base_empty = out.trim_end().ends_with('[');
    let push_evt = |out: &mut String, first: &mut bool| {
        if !std::mem::take(first) || !base_empty {
            out.push(',');
        }
    };
    let mut first = base_empty;
    // Track labels: pid 0 is the coordinator's virtual-time tracks; each
    // worker process appears once, in dst order.
    push_evt(&mut out, &mut first);
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0.000,\
         \"args\":{\"name\":\"coordinator (virtual time)\"}}",
    );
    let mut dsts: Vec<u32> = spans.iter().map(|s| s.dst).collect();
    dsts.sort_unstable();
    dsts.dedup();
    for d in &dsts {
        push_evt(&mut out, &mut first);
        write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"ts\":0.000,\
             \"args\":{{\"name\":\"worker node {d} (wall clock)\"}}}}",
            d + 1
        )
        .unwrap();
    }
    for s in spans {
        push_evt(&mut out, &mut first);
        write!(
            out,
            "{{\"name\":\"socket_batch\",\"ph\":\"X\",\"pid\":{},\"tid\":0,\
             \"ts\":{}.{:03},\"dur\":{}.{:03},\
             \"args\":{{\"frames\":{},\"bytes\":{}}}}}",
            s.dst + 1,
            s.start_ns / 1000,
            s.start_ns % 1000,
            s.dur_ns / 1000,
            s.dur_ns % 1000,
            s.frames,
            s.bytes
        )
        .unwrap();
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn single_sample_pins_every_percentile() {
        let mut h = Histogram::new();
        h.record(1234);
        assert_eq!(h.count(), 1);
        assert_eq!((h.min(), h.max()), (1234, 1234));
        // 1234 has 11 bits → bucket 11, upper bound 2047; every
        // percentile of a single sample reports that bound.
        assert_eq!(h.percentile(0.5), 2047);
        assert_eq!(h.percentile(0.99), 2047);
    }

    #[test]
    fn zero_valued_samples_land_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!((h.min(), h.max()), (0, 0));
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn max_sample_saturates_top_bucket_and_sum() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.percentile(0.99), u64::MAX);
        // The top bucket holds everything from 2^63 up; its upper bound
        // saturates at u64::MAX.
        let mut g = Histogram::new();
        g.record(1u64 << 63);
        assert_eq!(g.percentile(0.5), u64::MAX);
    }

    #[test]
    fn percentiles_walk_buckets_in_order() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(100); // bucket 7, upper bound 127
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 14, upper bound 16383
        }
        assert_eq!(h.percentile(0.5), 127);
        assert_eq!(h.percentile(0.90), 127);
        // 10_000 has 14 bits → bucket 14, upper bound 16383.
        assert_eq!(h.percentile(0.99), 16_383);
    }

    #[test]
    fn registry_iter_spells_ascending_keys_for_what_was_recorded() {
        let mut coord = Telemetry::default();
        coord.count(0, 16);
        coord.count(3, 0); // a frame without payload counts no bytes
        coord.record(Stage::Route, 0, 500);
        let mut w = Telemetry::default();
        w.count(9, 24);
        w.record(Stage::Apply, 9, 900);
        let reg = MetricsRegistry::new(
            Box::new(coord),
            vec![(1, w.clone()), (2, Telemetry::default()), (10, w)],
        );
        let keys: Vec<String> = reg.iter().map(|(k, _)| k).collect();
        let node =
            |n: u32| ["apply", "frames", "payload_bytes"].map(|s| format!("node{n}.{s}.unknown"));
        let mut want = vec![
            "coord.frames.diff".to_string(),
            "coord.frames.push".to_string(),
            "coord.payload_bytes.push".to_string(),
            "coord.route.push".to_string(),
        ];
        want.extend(node(1));
        want.extend(node(10));
        assert_eq!(
            keys, want,
            "node1. sorts before node10., as a string map would"
        );
        let nodes: Vec<_> = reg.nodes().map(|(n, t)| (n, t.is_empty())).collect();
        assert_eq!(nodes, [(1, false), (2, true), (10, false)]);
        assert_eq!(reg.coord().payload_total(), 16);
        let (_, m) = reg.iter().find(|(k, _)| k == "coord.route.push").unwrap();
        assert_eq!(m.as_hist().map(|h| h.sum()), Some(500));
        let none = MetricsRegistry::new(Box::default(), vec![(0, Telemetry::default())]);
        assert!(none.iter().next().is_none());
    }

    #[test]
    fn blob_round_trips_and_rejects_corruption() {
        let mut t = Telemetry::default();
        t.count(2, 7);
        for v in [0, 1, 17, 100_000, u64::MAX] {
            t.record(Stage::Recv, 2, v);
        }
        let blob = t.to_bytes();
        let back = Telemetry::from_bytes(&blob).unwrap();
        assert_eq!(back, t);
        // Truncation at every prefix length must error, never panic.
        for cut in 0..blob.len() {
            assert!(Telemetry::from_bytes(&blob[..cut]).is_err());
        }
        // Trailing garbage is rejected.
        let mut long = blob.clone();
        long.push(0);
        assert!(Telemetry::from_bytes(&long).is_err());
        // A wrong version is rejected.
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(Telemetry::from_bytes(&bad).is_err());
        // The empty table round-trips too.
        let empty = Telemetry::default();
        assert_eq!(Telemetry::from_bytes(&empty.to_bytes()).unwrap(), empty);
        // Every bucket of every histogram occupied is the largest blob.
        let mut full = Telemetry::default();
        for s in Stage::ALL {
            for kind in 0..6 {
                full.record(s, kind, 0);
                for k in 0..64 {
                    full.record(s, kind, 1 << k);
                }
            }
        }
        let max = full.to_bytes();
        assert_eq!(max.len(), METRICS_BLOB_MAX);
        assert_eq!(Telemetry::from_bytes(&max).unwrap(), full);
    }

    /// A histogram whose buckets arrive wrapped, repeated or out of
    /// order, or whose header no sequence of samples could leave, is
    /// hostile: it must fail typed, never panic or be accepted.
    #[test]
    fn blob_rejects_wrapping_and_repeated_histogram_buckets() {
        let mut t = Telemetry::default();
        for v in [0, 0, 1, 1, 1] {
            t.record(Stage::Reencode, 5, v); // buckets (0, 2), (1, 3): count 5
        }
        let blob = t.to_bytes();
        // The blob ends with the last histogram's two `(bucket: u8,
        // count: u64)` pairs.
        let tail = |pairs: [(u8, u64); 2]| {
            let mut b = blob[..blob.len() - 18].to_vec();
            for (k, c) in pairs {
                b.push(k);
                b.extend_from_slice(&c.to_le_bytes());
            }
            Telemetry::from_bytes(&b)
        };
        assert_eq!(tail([(0, 2), (1, 3)]), Ok(t));
        // u64::MAX + 6 wraps to the header's 5.
        assert!(tail([(0, u64::MAX), (1, 6)])
            .unwrap_err()
            .contains("bucket counts overflow"));
        for bad in [[(3, 2), (3, 3)], [(4, 2), (1, 3)]] {
            assert!(tail(bad).unwrap_err().contains("repeated or out of order"));
        }
        // Overwrite one header word: `at` is the histogram's offset, the
        // fields are `count, sum, min, max`.
        let header = |at: usize, field: usize, v: u64| {
            let mut b = blob.clone();
            b[at + 8 * field..at + 8 * field + 8].copy_from_slice(&v.to_le_bytes());
            Telemetry::from_bytes(&b).unwrap_err()
        };
        // The last histogram (min 0, max 1 over buckets 0 and 1).
        let last = blob.len() - 18 - 1 - 32;
        let disagrees = "disagrees with its buckets";
        assert!(header(last, 2, 2).contains(disagrees), "min above max");
        assert!(header(last, 2, 1).contains(disagrees), "min above bucket 0");
        assert!(header(last, 3, 2).contains(disagrees), "max above bucket 1");
        // The first histogram, empty, right after version and counters:
        // non-zero sum or max, or a min below `u64::MAX`.
        let first = 2 + 12 * 8;
        for (field, v) in [(1, 1), (3, 1), (2, 0)] {
            assert!(header(first, field, v).contains(disagrees));
        }
    }

    #[test]
    fn class_names_cover_every_wire_kind() {
        assert_eq!(class_name(0), "push");
        assert_eq!(class_name(1), "flush");
        assert_eq!(class_name(2), "copy");
        assert_eq!(class_name(3), "diff");
        assert_eq!(class_name(4), "strided");
        assert_eq!(class_name(99), "unknown");
        // Every kind byte above 4 lands in the `unknown` column.
        let mut t = Telemetry::default();
        t.count(99, 8);
        t.record(Stage::Decode, 200, 1);
        assert_eq!((t.frames(5), t.payload_bytes(5)), (1, 8));
        assert_eq!(t.hist(Stage::Decode, 5).count(), 1);
        let names = Stage::ALL.map(Stage::name);
        assert_eq!(
            names,
            ["encode", "route", "decode", "apply", "recv", "reencode"]
        );
    }

    #[test]
    fn merge_chrome_splices_pid_tracks() {
        let base = r#"[{"name":"compute","ph":"X","pid":0,"tid":1,"ts":0.000,"dur":5.000}]"#;
        let spans = [
            WireSpan {
                dst: 0,
                start_ns: 1500,
                dur_ns: 2750,
                frames: 3,
                bytes: 96,
            },
            WireSpan {
                dst: 2,
                start_ns: 4000,
                dur_ns: 1000,
                frames: 1,
                bytes: 32,
            },
        ];
        let merged = merge_chrome(base, &spans);
        assert!(merged.starts_with('[') && merged.ends_with(']'));
        assert!(merged.contains("\"ph\":\"M\""));
        assert!(merged.contains("coordinator (virtual time)"));
        assert!(merged.contains("worker node 0 (wall clock)"));
        assert!(merged.contains("worker node 2 (wall clock)"));
        assert!(merged.contains("\"pid\":1,\"tid\":0,\"ts\":1.500,\"dur\":2.750"));
        assert!(merged.contains("\"args\":{\"frames\":3,\"bytes\":96}"));
        // An empty base trace still yields a valid array.
        let merged_empty = merge_chrome("[]", &spans);
        assert!(merged_empty.starts_with("[{"));
        assert!(merged_empty.ends_with(']'));
        assert!(
            !merged_empty.contains("[,"),
            "no leading comma: {merged_empty}"
        );
    }
}
