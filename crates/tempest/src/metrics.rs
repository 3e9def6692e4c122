//! Wall-clock telemetry: counters and log2-bucketed latency histograms
//! with a deterministic binary export.
//!
//! The simulator's canonical artifacts (report, trace, profile) are pure
//! functions of *virtual* time and must stay byte-identical run-over-run;
//! host nanoseconds may only ever appear in clearly wall-clock side
//! channels (`wall_ns`, `wire_route_ns`). This module is that
//! side channel grown into a real instrument: per-`WireMsg`-class latency
//! histograms recorded on both sides of a socket and merged under
//! node-tagged keys (deterministic in *shape* — key order, field order —
//! while the recorded nanoseconds are of course wall-clock measurements).
//!
//! Everything here is std-only and allocation-light: a [`Histogram`] is a
//! fixed 65-slot array (one slot per power-of-two bucket), a
//! [`MetricsRegistry`] is a `BTreeMap` so iteration is deterministic, and
//! the whole registry round-trips through a compact
//! length-checked binary blob so `fgdsm-node` workers can ship their
//! metrics home inside the `ByeStats` control frame.

use crate::cursor::{Cursor, Truncated};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of histogram buckets: slot 0 holds exact zeros, slot `k`
/// (1..=64) holds values in `[2^(k-1), 2^k)` — slot 64 therefore
/// saturates at `u64::MAX`.
pub(crate) const HIST_BUCKETS: usize = 65;

/// Version tag of the registry's binary wire blob.
pub(crate) const METRICS_BLOB_VERSION: u16 = 1;

/// Caps for the paranoid blob decoder: a worker registry holds a few
/// dozen entries; anything bigger than this is a corrupt frame.
const MAX_BLOB_ENTRIES: usize = 4096;
const MAX_BLOB_NAME: usize = 256;

/// The five `WireMsg` payload classes by `kind()` byte, for metric-key
/// construction (`route.push`, `node2.apply.diff`, …).
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

/// The `<stage>.<class>` metric keys of one pipeline stage, one per
/// [`class_name`], spelled out at compile time: the metered path looks a
/// key up by kind byte and never formats one.
pub struct ClassKeys([&'static str; 6]);

macro_rules! class_keys {
    ($stage:literal) => {
        ClassKeys([
            concat!($stage, ".push"),
            concat!($stage, ".flush"),
            concat!($stage, ".copy"),
            concat!($stage, ".diff"),
            concat!($stage, ".strided"),
            concat!($stage, ".unknown"),
        ])
    };
}

impl ClassKeys {
    pub const FRAMES: ClassKeys = class_keys!("frames");
    pub const PAYLOAD_BYTES: ClassKeys = class_keys!("payload_bytes");
    pub const ENCODE: ClassKeys = class_keys!("encode");
    pub const ROUTE: ClassKeys = class_keys!("route");
    pub const DECODE: ClassKeys = class_keys!("decode");
    pub const APPLY: ClassKeys = class_keys!("apply");
    pub const RECV: ClassKeys = class_keys!("recv");
    pub const REENCODE: ClassKeys = class_keys!("reencode");

    /// This stage's key for the class of `kind`.
    pub fn of(&self, kind: u8) -> &'static str {
        self.0[usize::from(kind).min(5)]
    }
}

/// A log2-bucketed latency histogram over `u64` nanoseconds.
///
/// Percentiles are reported as the *upper bound* of the smallest bucket
/// whose cumulative count reaches the rank `ceil(p × count)`. That
/// definition is deliberately conservative (never under-reports) and has
/// a property the cross-process merge relies on: the percentile of a
/// merged histogram always lies between the smallest and largest
/// per-part percentile (see the proptest in `tests/proptests.rs`).
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

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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
    /// Returns 0 for an empty histogram. The bound is *not* clamped to
    /// `max()` — keeping it a pure function of bucket occupancy is what
    /// makes a merged histogram's percentile provably lie between the
    /// smallest and largest per-part percentile (clamping breaks that:
    /// a merge can land in a bucket between two parts' maxima).
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
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    Counter(u64),
    /// Boxed: a histogram is a 65-slot array, far larger than a counter,
    /// and registries hold mostly counters.
    Hist(Box<Histogram>),
}

impl Metric {
    /// The counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            Metric::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// The histogram, if this is one.
    pub fn as_hist(&self) -> Option<&Histogram> {
        match self {
            Metric::Hist(h) => Some(h),
            _ => None,
        }
    }

    fn new_hist() -> Metric {
        Metric::Hist(Box::default())
    }
}

/// A deterministic named-metric registry. Keys are dotted paths
/// (`route.push`, `frames.diff`, `node1.apply.copy`); iteration and the
/// binary blob are both in key order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    map: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Add to a counter (created at 0 on first touch).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        match self.slot(name, || Metric::Counter(0)) {
            Metric::Counter(c) => *c += v,
            other => panic!("metric `{name}` is not a counter: {other:?}"),
        }
    }

    /// The metric under `name`, created by `init` on first touch — the
    /// only time the key is copied.
    fn slot(&mut self, name: &str, init: impl FnOnce() -> Metric) -> &mut Metric {
        if !self.map.contains_key(name) {
            self.map.insert(name.to_string(), init());
        }
        self.map.get_mut(name).expect("present or just inserted")
    }

    /// Record one sample into a histogram (created empty on first touch).
    pub fn record_ns(&mut self, name: &str, ns: u64) {
        match self.slot(name, Metric::new_hist) {
            Metric::Hist(h) => h.record(ns),
            other => panic!("metric `{name}` is not a histogram: {other:?}"),
        }
    }

    /// A counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.map.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// A histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        match self.map.get(name) {
            Some(Metric::Hist(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Fold `other` into this registry with every key prefixed by
    /// `{tag}.` — how the coordinator files each process's metric set
    /// under its own namespace (`coord.`, `node0.`, `node1.` …).
    /// Counters add, histograms merge.
    pub fn merge_tagged(&mut self, tag: &str, other: &MetricsRegistry) {
        for (k, m) in &other.map {
            let key = format!("{tag}.{k}");
            match (self.map.entry(key), m) {
                (e, Metric::Counter(v)) => match e.or_insert(Metric::Counter(0)) {
                    Metric::Counter(c) => *c += v,
                    other => panic!("merge type clash on counter: {other:?}"),
                },
                (e, Metric::Hist(h)) => match e.or_insert_with(Metric::new_hist) {
                    Metric::Hist(mine) => mine.merge(h),
                    other => panic!("merge type clash on histogram: {other:?}"),
                },
            }
        }
    }

    /// Compact binary blob for shipping a registry inside a control
    /// frame. Layout (all little-endian):
    /// `version:u16, entries:u32, then per entry: name_len:u16, name,
    /// tag:u8, payload` — a counter (tag 0) is one u64; a histogram (tag
    /// 2) is `count,sum,min,max : u64` plus `nonzero:u8` sparse
    /// `(bucket:u8, count:u64)` pairs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&METRICS_BLOB_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.map.len() as u32).to_le_bytes());
        for (k, m) in &self.map {
            out.extend_from_slice(&(k.len() as u16).to_le_bytes());
            out.extend_from_slice(k.as_bytes());
            match m {
                Metric::Counter(v) => {
                    out.push(0);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Metric::Hist(h) => {
                    out.push(2);
                    out.extend_from_slice(&h.count.to_le_bytes());
                    out.extend_from_slice(&h.sum.to_le_bytes());
                    out.extend_from_slice(&h.min.to_le_bytes());
                    out.extend_from_slice(&h.max.to_le_bytes());
                    let nonzero = h.counts.iter().filter(|&&c| c != 0).count() as u8;
                    out.push(nonzero);
                    for (i, &c) in h.counts.iter().enumerate() {
                        if c != 0 {
                            out.push(i as u8);
                            out.extend_from_slice(&c.to_le_bytes());
                        }
                    }
                }
            }
        }
        out
    }

    /// Paranoid decode of [`to_bytes`](Self::to_bytes) — the blob arrives
    /// from a worker socket: every length is checked, caps are enforced,
    /// histogram buckets must be strictly ascending and sum (without
    /// wrapping) to the header count, trailing bytes are rejected.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        let cut = |Truncated(at)| format!("metrics blob truncated at offset {at}");
        let mut c = Cursor::new(buf);
        let version = c.u16().map_err(cut)?;
        if version != METRICS_BLOB_VERSION {
            return Err(format!("metrics blob version {version} unsupported"));
        }
        let entries = c.u32().map_err(cut)? as usize;
        if entries > MAX_BLOB_ENTRIES {
            return Err(format!("metrics blob claims {entries} entries"));
        }
        let mut map = BTreeMap::new();
        for _ in 0..entries {
            let name_len = c.u16().map_err(cut)? as usize;
            if name_len > MAX_BLOB_NAME {
                return Err(format!("metric name of {name_len} bytes"));
            }
            let name = std::str::from_utf8(c.take(name_len).map_err(cut)?)
                .map_err(|_| "metric name is not utf-8".to_string())?
                .to_string();
            let metric = match c.u8().map_err(cut)? {
                0 => Metric::Counter(c.u64().map_err(cut)?),
                2 => {
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
                    Metric::Hist(Box::new(h))
                }
                t => return Err(format!("unknown metric tag {t}")),
            };
            if map.insert(name.clone(), metric).is_some() {
                return Err(format!("duplicate metric `{name}`"));
            }
        }
        if c.remaining() != 0 {
            return Err(format!(
                "{} trailing bytes after metrics blob",
                c.remaining()
            ));
        }
        Ok(MetricsRegistry { map })
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
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        a.record(7);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!((a.min(), a.max()), (5, 1_000_000));
        assert_eq!(a.sum(), 1_000_012);
    }

    #[test]
    fn registry_merge_tagged_prefixes_and_folds() {
        let mut coord = MetricsRegistry::new();
        coord.counter_add("frames.push", 3);
        coord.record_ns("route.push", 500);
        let mut w = MetricsRegistry::new();
        w.counter_add("frames.push", 3);
        w.record_ns("apply.push", 900);
        let mut merged = MetricsRegistry::new();
        merged.merge_tagged("coord", &coord);
        merged.merge_tagged("node0", &w);
        merged.merge_tagged("node0", &w); // folding twice adds counters
        assert_eq!(merged.counter("coord.frames.push"), 3);
        assert_eq!(merged.counter("node0.frames.push"), 6);
        assert_eq!(merged.hist("node0.apply.push").unwrap().count(), 2);
        assert_eq!(merged.hist("coord.route.push").unwrap().count(), 1);
    }

    #[test]
    fn blob_round_trips_and_rejects_corruption() {
        let mut r = MetricsRegistry::new();
        r.counter_add("frames.copy", 7);
        for v in [0, 1, 17, 100_000, u64::MAX] {
            r.record_ns("recv.copy", v);
        }
        let blob = r.to_bytes();
        let back = MetricsRegistry::from_bytes(&blob).unwrap();
        assert_eq!(back, r);
        // Truncation at every prefix length must error, never panic.
        for cut in 0..blob.len() {
            assert!(MetricsRegistry::from_bytes(&blob[..cut]).is_err());
        }
        // Trailing garbage is rejected.
        let mut long = blob.clone();
        long.push(0);
        assert!(MetricsRegistry::from_bytes(&long).is_err());
        // A wrong version is rejected.
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(MetricsRegistry::from_bytes(&bad).is_err());
        // No encoder writes tag 1: a hand-built entry carrying it is
        // rejected, not read as some other metric.
        let mut tag1 = METRICS_BLOB_VERSION.to_le_bytes().to_vec();
        tag1.extend_from_slice(&1u32.to_le_bytes());
        tag1.extend_from_slice(&1u16.to_le_bytes());
        tag1.push(b'g');
        tag1.push(1);
        tag1.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            MetricsRegistry::from_bytes(&tag1),
            Err("unknown metric tag 1".to_string())
        );
        // The empty registry round-trips too.
        let empty = MetricsRegistry::new();
        assert_eq!(
            MetricsRegistry::from_bytes(&empty.to_bytes()).unwrap(),
            empty
        );
    }

    /// A histogram whose buckets arrive wrapped, repeated or out of order
    /// is hostile: it must fail typed, never panic or be accepted.
    #[test]
    fn blob_rejects_wrapping_and_repeated_histogram_buckets() {
        let mut r = MetricsRegistry::new();
        for v in [0, 0, 1, 1, 1] {
            r.record_ns("h", v); // buckets (0, 2), (1, 3): count 5
        }
        let blob = r.to_bytes();
        // The blob ends with the two `(bucket: u8, count: u64)` pairs.
        let tail = |pairs: [(u8, u64); 2]| {
            let mut b = blob[..blob.len() - 18].to_vec();
            for (k, c) in pairs {
                b.push(k);
                b.extend_from_slice(&c.to_le_bytes());
            }
            MetricsRegistry::from_bytes(&b)
        };
        assert_eq!(tail([(0, 2), (1, 3)]), Ok(r));
        // u64::MAX + 6 wraps to the header's 5.
        assert!(tail([(0, u64::MAX), (1, 6)])
            .unwrap_err()
            .contains("bucket counts overflow"));
        for bad in [[(3, 2), (3, 3)], [(4, 2), (1, 3)]] {
            assert!(tail(bad).unwrap_err().contains("repeated or out of order"));
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
        // The precomputed key table spells exactly `<stage>.<class>`.
        for (keys, stage) in [
            (ClassKeys::ROUTE, "route"),
            (ClassKeys::REENCODE, "reencode"),
        ] {
            for kind in [0u8, 1, 2, 3, 4, 5, 99] {
                assert_eq!(keys.of(kind), format!("{stage}.{}", class_name(kind)));
            }
        }
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
