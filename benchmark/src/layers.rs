//! The traced pass: per-layer numbers taken from outside the program,
//! by timing calls into its public functions. Nothing here runs while
//! end-to-end samples are taken.
//!
//! Layer = crate name. Four sources:
//! * the **ladder** — the workload's program on every backend rung;
//!   a layer's self time is the difference between two rungs;
//! * **existing telemetry** — one `.metered()` run, histogram sums read
//!   from `RunResult::metrics`;
//! * **direct calls** — analysis, codec and transports driven alone;
//! * **exact counts** — virtual-time statistics and allocation counts,
//!   which repeat bit for bit on the serial workloads.

use crate::measure::{check_against_reference, timed_loop, Budget, Prepared};
use crate::workloads::{Rung, Workload, NODES};
use crate::{alloc, stats, Pins, Tally};
use fgdsm_hpf::{analyze_program, execute_reference, try_execute, ExecConfig, RunResult, Stmt};
use fgdsm_net::{NetGeometry, NetKind, SocketOpts, SocketTransport};
use fgdsm_protocol::{ChanTransport, WireHeader, WireMsg, WireTransport};
use fgdsm_section::Env;
use fgdsm_tempest::NodeStats;
use std::hint::black_box;
use std::io::{Read, Write};
use std::time::Instant;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// How much the traced pass repeats.
pub struct Effort {
    /// Repetitions of the ladder: executes per rung and of the metered
    /// carrier (medians reported).
    pub ladder_reps: usize,
    /// Run each rung once untimed before its timed sample, so the
    /// sample sees the allocator and cache state a back-to-back loop of
    /// that configuration sees — the state `exec_wall_ms` is taken in.
    pub context_run: bool,
    /// Round trips per transport and frame size.
    pub round_trips: usize,
    /// Frames in the codec corpus.
    pub corpus_frames: usize,
    /// How long the untraced configuration is timed for
    /// `ladder.top_vs_e2e_pct`; `None` skips the comparison.
    pub e2e_seconds: Option<f64>,
}

impl Effort {
    pub const FULL: Effort = Effort {
        ladder_reps: 5,
        context_run: true,
        round_trips: 2000,
        corpus_frames: 512,
        e2e_seconds: Some(5.0),
    };
    pub const QUICK: Effort = Effort {
        ladder_reps: 1,
        context_run: false,
        round_trips: 200,
        corpus_frames: 64,
        e2e_seconds: None,
    };
}

/// `splitmix64`: the seeded stream behind the codec corpus and the
/// round-trip payloads.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// One traced pass over one workload: the sections below each add
/// their metrics to `out`.
struct Pass<'a> {
    w: &'a Workload,
    p: &'a Prepared,
    effort: &'a Effort,
    pins: &'a Pins,
    tally: &'a mut Tally,
    out: Vec<Metric>,
}

/// Everything the traced pass reports for one workload.
pub fn traced(
    w: &Workload,
    p: &Prepared,
    effort: &Effort,
    seed: u64,
    pins: &Pins,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let mut pass = Pass {
        w,
        p,
        effort,
        pins,
        tally,
        out: Vec::new(),
    };
    let ladder = pass.ladder()?;
    pass.telemetry(&ladder)?;
    pass.direct_calls(&ladder.smopt_run, seed)?;
    pass.exact_counts()?;
    Ok(pass.out)
}

/// What the interleaved repetitions produced.
struct Ladder {
    /// Median host time of each rung, ms.
    rung_ms: [f64; Rung::ALL.len()],
    /// The `sm_opt` rung's last run (its plan sizes the codec corpus).
    smopt_run: RunResult,
    /// The wire carrier's rung with telemetry on: median ms, last run.
    metered_ms: f64,
    metered_run: RunResult,
}

impl Ladder {
    fn at(&self, r: Rung) -> f64 {
        self.rung_ms[Rung::ALL.iter().position(|&x| x == r).expect("rung in ALL")]
    }
}

impl Pass<'_> {
    fn m(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.out.push(Metric { name, value, unit });
    }

    /// One timed execute of `cfg`, checked against the reference and by
    /// `also`; a failure is tallied and yields `None`.
    fn timed_execute(
        &mut self,
        label: &str,
        cfg: &ExecConfig,
        also: impl FnOnce(&RunResult) -> Result<(), String>,
    ) -> Option<(f64, RunResult)> {
        let t0 = Instant::now();
        let run = try_execute(&self.p.prog, cfg);
        let ms = ms_since(t0);
        let checked = run.map_err(|e| e.to_string()).and_then(|run| {
            check_against_reference(&self.p.prog, &self.p.reference, &run)?;
            also(&run)?;
            Ok(run)
        });
        match checked {
            Ok(run) => {
                self.tally.ok();
                Some((ms, run))
            }
            Err(e) => {
                self.tally.fail(format!("{label}: {e}"));
                None
            }
        }
    }

    /// The wire carrier whose telemetry this workload reads: sockets
    /// for `pde_tcp`, channels for the rest.
    fn carrier(&self) -> Rung {
        if self.w.rung == Rung::Tcp {
            Rung::Tcp
        } else {
            Rung::Chan
        }
    }

    /// The workload's program on every rung, each pinned as its own
    /// workload would be, every run checked; then the self times by
    /// difference, which telescope to the top rung.
    ///
    /// Everything compared with a rung is taken inside the same
    /// repetition as the rungs — the metered carrier run, a slice of
    /// the untraced loop — so a slow spell of the host lands on all of
    /// them alike and the differences survive it.
    fn ladder(&mut self) -> Result<Ladder, String> {
        let p = self.p;
        let reps = self.effort.ladder_reps;
        let metered_cfg = self.carrier().config().metered();
        let mut samples: [Vec<f64>; Rung::ALL.len()] = Default::default();
        let mut smopt_run: Option<RunResult> = None;
        let mut metered_ms = Vec::new();
        let mut metered_run = None;
        let mut e2e_ms = Vec::new();
        for _ in 0..reps {
            for (i, rung) in Rung::ALL.into_iter().enumerate() {
                self.pins.apply(rung.cpus());
                let cfg = rung.config();
                if rung == Rung::Reference {
                    if self.effort.context_run {
                        black_box(execute_reference(black_box(&p.prog), &cfg));
                    }
                    let t0 = Instant::now();
                    black_box(execute_reference(black_box(&p.prog), &cfg));
                    samples[i].push(ms_since(t0));
                    continue;
                }
                if self.effort.context_run {
                    drop(black_box(try_execute(&p.prog, &cfg)));
                }
                // strict, chan, tcp and the threaded run are sm_opt
                // behind another carrier or scheduler: their
                // virtual-time state must be sm_opt's, byte for byte.
                let base = smopt_run
                    .as_ref()
                    .filter(|_| rung.is_smopt_carrier())
                    .map(|r| r.report.to_json());
                let timed = self.timed_execute(rung.metric(), &cfg, |run| match base {
                    Some(base) if base != run.report.to_json() => {
                        Err("canonical report differs from sm_opt's".into())
                    }
                    _ => Ok(()),
                });
                if let Some((ms, run)) = timed {
                    samples[i].push(ms);
                    if rung == Rung::SmOpt {
                        smopt_run = Some(run);
                    }
                }
            }
            self.pins.apply(self.w.rung.cpus());
            if self.effort.context_run {
                drop(black_box(try_execute(&p.prog, &metered_cfg)));
            }
            if let Some((ms, run)) = self.timed_execute(
                "metered run",
                &metered_cfg,
                RunResult::check_metrics_conservation,
            ) {
                metered_ms.push(ms);
                metered_run = Some(run);
            }
            if let Some(seconds) = self.effort.e2e_seconds {
                let slice = Budget {
                    seconds: seconds / reps as f64,
                    min_samples: 1,
                };
                e2e_ms.extend(timed_loop(p, &slice, self.tally));
            }
        }
        let mut rung_ms = [0.0f64; Rung::ALL.len()];
        for (i, rung) in Rung::ALL.into_iter().enumerate() {
            if samples[i].is_empty() {
                return Err(format!("{}: no execute succeeded", rung.metric()));
            }
            rung_ms[i] = stats::median(&samples[i]);
            self.m(rung.metric(), rung_ms[i], "ms");
        }
        let l = Ladder {
            rung_ms,
            smopt_run: smopt_run.ok_or("sm_opt rung produced no run")?,
            metered_ms: stats::median(&metered_ms),
            metered_run: metered_run.ok_or("metered run: no execute succeeded")?,
        };
        self.m("apps.kernel_ms", l.at(Rung::Reference), "ms");
        self.m(
            "hpf.engine_ms",
            l.at(Rung::Mp) - l.at(Rung::Reference),
            "ms",
        );
        self.m("protocol.ctl_ms", l.at(Rung::SmOpt) - l.at(Rung::Mp), "ms");
        self.m(
            "protocol.default_ms",
            l.at(Rung::SmUnopt) - l.at(Rung::Mp),
            "ms",
        );
        self.m(
            "protocol.codec_ms",
            l.at(Rung::Strict) - l.at(Rung::SmOpt),
            "ms",
        );
        self.m(
            "protocol.chan_ms",
            l.at(Rung::Chan) - l.at(Rung::Strict),
            "ms",
        );
        self.m("net.socket_ms", l.at(Rung::Tcp) - l.at(Rung::Strict), "ms");
        self.m(
            "tempest.pool_gain_ms",
            l.at(Rung::SmOpt) - l.at(Rung::SmOptT2),
            "ms",
        );

        // The untraced loop as this pass saw it, and the top rung against
        // it: how far the ladder may be trusted as a decomposition of
        // `exec_wall_ms`. Quick mode has no loop worth comparing to.
        // The 75th percentile lives here, not among the end-to-end
        // metrics: on a shared host it is too unsteady to gate on.
        let (loop_ms, loop_p75_ms) = if self.effort.e2e_seconds.is_none() {
            (l.at(self.w.rung), l.at(self.w.rung))
        } else if e2e_ms.is_empty() {
            return Err("untraced loop: no execute succeeded".into());
        } else {
            let sorted = stats::sorted(&e2e_ms);
            (
                stats::percentile(&sorted, 50.0),
                stats::percentile(&sorted, 75.0),
            )
        };
        self.m("exec.loop_ms", loop_ms, "ms");
        self.m("exec.loop_p75_ms", loop_p75_ms, "ms");
        self.m("exec.loop_samples", e2e_ms.len() as f64, "count");
        self.m(
            "ladder.top_vs_e2e_pct",
            100.0 * (l.at(self.w.rung) - loop_ms) / loop_ms,
            "%",
        );
        Ok(l)
    }

    /// Existing telemetry, read not added: histogram sums over the
    /// message classes of the metered run on this workload's carrier.
    fn telemetry(&mut self, ladder: &Ladder) -> Result<(), String> {
        let run = &ladder.metered_run;
        let reg = run.metrics().ok_or("metered run returned no registry")?;
        // Sum of a stage's histograms over message classes, ms. Keys
        // are `coord.<stage>.<class>` and `node<i>.<stage>.<class>`.
        let stage_ms = |on_node: bool, stage: &str| {
            reg.iter()
                .filter_map(|(key, metric)| {
                    let mut parts = key.splitn(3, '.');
                    let (who, st) = (parts.next()?, parts.next()?);
                    if who.starts_with("node") != on_node || st != stage {
                        return None;
                    }
                    metric.as_hist().map(|h| h.sum())
                })
                .sum::<u64>() as f64
                / 1e6
        };
        for (name, on_node, stage) in [
            ("wire.encode_ms", false, "encode"),
            ("wire.route_ms", false, "route"),
            ("wire.decode_ms", false, "decode"),
            ("wire.apply_ms", false, "apply"),
            ("node.recv_ms", true, "recv"),
            ("node.apply_ms", true, "apply"),
            ("node.reencode_ms", true, "reencode"),
        ] {
            let ms = stage_ms(on_node, stage);
            self.m(name, ms, "ms");
        }
        // The gap between this and `wire.route_ms` is the per-frame
        // booking of per-batch round trips that ROADMAP suspects.
        self.m("wire.route_wall_ms", run.wire_route_ns() as f64 / 1e6, "ms");
        let unmetered = ladder.at(self.carrier());
        self.m(
            "trace.overhead_pct",
            100.0 * (ladder.metered_ms - unmetered) / unmetered,
            "%",
        );
        self.m("wire.frames", run.wire_frames as f64, "count");
        self.m("wire.payload_bytes", run.wire_payload_bytes as f64, "bytes");
        Ok(())
    }

    /// Analysis, codec and transports driven alone.
    fn direct_calls(&mut self, smopt_run: &RunResult, seed: u64) -> Result<(), String> {
        let p = self.p;
        let wpb = p.cfg.cost.words_per_block();
        // Loops inside a time loop are analysed as its first step sees
        // them (lu's sections shrink with the step variable).
        let mut env = p.cfg.base_env.clone();
        bind_time_vars(&p.prog.body, &mut env);
        let mut analysis_ms = Vec::new();
        let mut reports = Vec::new();
        for _ in 0..self.effort.ladder_reps {
            let t0 = Instant::now();
            reports = analyze_program(black_box(&p.prog), &env, NODES, wpb);
            analysis_ms.push(ms_since(t0));
        }
        self.m("hpf.analysis_ms", stats::median(&analysis_ms), "ms");
        self.m("hpf.loops", reports.len() as f64, "count");
        let transfers: usize = reports.iter().map(|r| r.transfers.len()).sum();
        self.m("hpf.transfers", transfers as f64, "count");

        let mut rng = Rng(seed);
        let corpus = codec_corpus(smopt_run, wpb, self.effort.corpus_frames, &mut rng)?;
        let codec = time_codec(&corpus)?;
        self.m("protocol.encode_ns_per_frame", codec.encode_ns, "ns");
        self.m("protocol.decode_ns_per_frame", codec.decode_ns, "ns");
        self.m("protocol.codec_mb_s", codec.mb_s, "MB/s");

        let trips = self.effort.round_trips;
        let small = rtt_frame(32, wpb, &mut rng); // 256 B of payload
        let large = rtt_frame(512, wpb, &mut rng); // 4 KiB of payload
        let net = time_socket_transport(&small, &large, wpb, trips)?;
        self.m("net.spawn_ms", net.spawn_ms, "ms");
        self.m("net.finish_ms", net.finish_ms, "ms");
        self.m("net.rtt_us_256B", net.rtt_small_us, "us");
        self.m("net.rtt_us_4KiB", net.rtt_large_us, "us");
        let raw_small = raw_rtt_us(net.kind, small.len(), trips)?;
        self.m("net.raw_rtt_us_256B", raw_small, "us");
        self.m(
            "net.raw_rtt_us_4KiB",
            raw_rtt_us(net.kind, large.len(), trips)?,
            "us",
        );
        self.m("net.rtt_over_raw_256B", net.rtt_small_us / raw_small, "x");
        let mut chan = ChanTransport::new(NODES);
        let chan_small = transport_rtt_us(&mut chan, &small, trips)?;
        let chan_large = transport_rtt_us(&mut chan, &large, trips)?;
        chan.shutdown();
        self.m("protocol.chan_rtt_us_256B", chan_small, "us");
        self.m("protocol.chan_rtt_us_4KiB", chan_large, "us");
        Ok(())
    }

    /// Virtual-time statistics and allocation counts of one execute of
    /// the workload's own configuration.
    fn exact_counts(&mut self) -> Result<(), String> {
        let p = self.p;
        let (run, allocs, alloc_bytes) = alloc::counted(|| try_execute(&p.prog, &p.cfg));
        let run = match p.checked(run.map_err(|e| e.to_string())) {
            Ok(run) => {
                self.tally.ok();
                run
            }
            Err(e) => {
                self.tally.fail(format!("counted run: {e}"));
                return Err("counted run failed".into());
            }
        };
        let nodes = &run.report.nodes;
        let sum = |f: fn(&NodeStats) -> u64| nodes.iter().map(f).sum::<u64>() as f64;
        let c = &run.ctl;
        let ctl_calls = c.mk_writable
            + c.implicit_writable
            + c.implicit_invalidate
            + c.send_range
            + c.ready_recv
            + c.flush_range;
        self.m("sim.time_s", run.total_s(), "sim_s");
        self.m("sim.compute_s", run.report.compute_s(), "sim_s");
        self.m("sim.comm_s", run.report.comm_s(), "sim_s");
        self.m("sim.msgs", run.report.total_msgs() as f64, "count");
        self.m("sim.bytes", run.report.total_bytes() as f64, "bytes");
        self.m("sim.read_misses", sum(|n| n.read_misses), "count");
        self.m("sim.write_misses", sum(|n| n.write_misses), "count");
        self.m("sim.blocks_pushed", c.blocks_pushed as f64, "count");
        self.m("sim.ctl_calls", ctl_calls as f64, "count");
        self.m("plan.xfers", run.planned.len() as f64, "count");
        let plan_bytes: u64 = run.planned.iter().map(|x| x.bytes).sum();
        self.m("plan.bytes", plan_bytes as f64, "bytes");
        self.m("alloc.count_per_exec", allocs as f64, "count");
        self.m("alloc.bytes_per_exec", alloc_bytes as f64, "bytes");
        Ok(())
    }
}

/// Bind every time-loop variable to its first value.
fn bind_time_vars(stmts: &[Stmt], env: &mut Env) {
    for s in stmts {
        if let Stmt::Time { var, body, .. } = s {
            env.set(*var, 0);
            bind_time_vars(body, env);
        }
    }
}

// ----------------------------------------------------------------------
// protocol: the codec alone
// ----------------------------------------------------------------------

/// `n` `Push` envelopes whose sizes are drawn, by the seeded stream,
/// from the transfers `sm_opt` planned for this program — the
/// workload's own frame-size mix — filled with seeded words.
fn codec_corpus(
    smopt: &RunResult,
    wpb: usize,
    n: usize,
    rng: &mut Rng,
) -> Result<Vec<WireMsg>, String> {
    if smopt.planned.is_empty() {
        return Err("sm_opt planned no transfers to size the codec corpus from".into());
    }
    Ok((0..n)
        .map(|i| {
            let x = smopt.planned[rng.below(smopt.planned.len())];
            let blocks = x.blocks as usize;
            let (src, dst) = (i % NODES, (i + 1) % NODES);
            WireMsg::Push {
                hdr: WireHeader::for_blocks(src, dst, (x.step, x.loop_id), x.array, 0, blocks),
                start_block: 0,
                n_blocks: blocks as u32,
                words: (0..blocks * wpb).map(|_| rng.next()).collect(),
            }
        })
        .collect())
}

struct CodecTimes {
    encode_ns: f64,
    decode_ns: f64,
    mb_s: f64,
}

/// Host time each codec direction is measured for.
const CODEC_BUDGET_MS: f64 = 100.0;

fn time_codec(corpus: &[WireMsg]) -> Result<CodecTimes, String> {
    let frames: Vec<Vec<u8>> = corpus.iter().map(WireMsg::to_bytes).collect();
    for (msg, frame) in corpus.iter().zip(&frames) {
        if WireMsg::from_bytes(frame).as_ref() != Ok(msg) {
            return Err("codec corpus frame did not round-trip".into());
        }
    }
    let bytes: usize = frames.iter().map(Vec::len).sum();
    // Whole passes over the corpus until the budget is spent; per-frame
    // time is the total over the frames handled.
    let per_frame_ns = |pass: &mut dyn FnMut()| {
        let t0 = Instant::now();
        let mut passes = 0u64;
        while ms_since(t0) < CODEC_BUDGET_MS {
            pass();
            passes += 1;
        }
        t0.elapsed().as_secs_f64() * 1e9 / (passes * corpus.len() as u64) as f64
    };
    let mut buf = Vec::new();
    let encode_ns = per_frame_ns(&mut || {
        for msg in corpus {
            buf.clear();
            black_box(msg).encode(&mut buf);
            black_box(&buf);
        }
    });
    let decode_ns = per_frame_ns(&mut || {
        for frame in &frames {
            black_box(WireMsg::from_bytes(black_box(frame)).expect("checked above"));
        }
    });
    let avg_bytes = bytes as f64 / corpus.len() as f64;
    Ok(CodecTimes {
        encode_ns,
        decode_ns,
        // One encode plus one decode of an average frame; bytes per
        // nanosecond is GB/s, so ×1000 for MB/s.
        mb_s: 1e3 * 2.0 * avg_bytes / (encode_ns + decode_ns),
    })
}

// ----------------------------------------------------------------------
// net and protocol: the transports alone
// ----------------------------------------------------------------------

/// Segment the round-trip frames land in (words): room for the 4 KiB
/// frame at block 0 of every node's mirror.
const RTT_SEG_WORDS: u64 = 1 << 12;

/// One encoded `Push` of `words` payload words to block 0.
fn rtt_frame(words: usize, wpb: usize, rng: &mut Rng) -> Vec<u8> {
    let blocks = words / wpb;
    WireMsg::Push {
        hdr: WireHeader::for_blocks(0, 1, (0, 0), 0, 0, blocks),
        start_block: 0,
        n_blocks: blocks as u32,
        words: (0..words).map(|_| rng.next()).collect(),
    }
    .to_bytes()
}

/// Median round trip, µs, of `frame` routed alone through `transport`,
/// the destination rotating over the nodes as it does in a run.
fn transport_rtt_us(
    transport: &mut dyn WireTransport,
    frame: &[u8],
    round_trips: usize,
) -> Result<f64, String> {
    let mut us = Vec::with_capacity(round_trips);
    // One untimed lap first: first-touch of each link's buffers.
    for i in 0..NODES + round_trips {
        let batch = vec![frame.to_vec()];
        let t0 = Instant::now();
        let back = transport
            .route(i % NODES, batch)
            .map_err(|e| format!("{} route: {e}", transport.name()))?;
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        if back.len() != 1 || back[0] != frame {
            return Err(format!("{} returned a different frame", transport.name()));
        }
        if i >= NODES {
            us.push(dt);
        }
    }
    Ok(stats::median(&us))
}

struct NetTimes {
    kind: NetKind,
    spawn_ms: f64,
    finish_ms: f64,
    rtt_small_us: f64,
    rtt_large_us: f64,
}

/// `SocketTransport` alone: spawn eight `fgdsm-node` processes, ping
/// them, tear them down — the costs `pde_tcp` pays inside every execute.
fn time_socket_transport(
    small: &[u8],
    large: &[u8],
    wpb: usize,
    round_trips: usize,
) -> Result<NetTimes, String> {
    let geom = NetGeometry {
        nprocs: NODES,
        wpb: wpb as u32,
        seg_words: RTT_SEG_WORDS,
    };
    let t0 = Instant::now();
    let mut transport = SocketTransport::spawn(geom, SocketOpts::default())
        .map_err(|e| format!("SocketTransport::spawn: {e}"))?;
    let spawn_ms = ms_since(t0);
    let kind = transport.net_kind();
    let rtt_small_us = transport_rtt_us(&mut transport, small, round_trips)?;
    let rtt_large_us = transport_rtt_us(&mut transport, large, round_trips)?;
    let t0 = Instant::now();
    let reports = transport.finish();
    let finish_ms = ms_since(t0);
    if reports.len() != NODES {
        return Err(format!(
            "{} of {NODES} nodes reported at teardown",
            reports.len()
        ));
    }
    Ok(NetTimes {
        kind,
        spawn_ms,
        finish_ms,
        rtt_small_us,
        rtt_large_us,
    })
}

/// The raw-substrate floor (DART-MPI's yardstick): median round trip of
/// a length-prefixed `len`-byte message to a benchmark-owned echo
/// thread over a plain socket of the family the transport chose. The
/// echo side is a thread, not a process, and nothing is decoded — what
/// is left is what the kernel socket costs.
fn raw_rtt_us(kind: NetKind, len: usize, round_trips: usize) -> Result<f64, String> {
    let io = |what: &str, e: std::io::Error| format!("raw echo {what}: {e}");
    match kind {
        NetKind::Tcp => {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| io("bind", e))?;
            let addr = listener.local_addr().map_err(|e| io("addr", e))?;
            let echo = std::thread::spawn(move || {
                let (s, _) = listener.accept()?;
                s.set_nodelay(true)?;
                echo_loop(s)
            });
            let client = std::net::TcpStream::connect(addr).map_err(|e| io("connect", e))?;
            client.set_nodelay(true).map_err(|e| io("nodelay", e))?;
            ping(client, echo, len, round_trips)
        }
        #[cfg(unix)]
        NetKind::Uds => {
            // A socket pair needs no path, so nothing lands outside the
            // checkout.
            let (client, server) =
                std::os::unix::net::UnixStream::pair().map_err(|e| io("pair", e))?;
            let echo = std::thread::spawn(move || echo_loop(server));
            ping(client, echo, len, round_trips)
        }
        #[cfg(not(unix))]
        NetKind::Uds => Err("raw echo: no Unix sockets on this platform".into()),
    }
}

/// Echo length-prefixed messages until the peer closes.
fn echo_loop(mut s: impl Read + Write) -> std::io::Result<()> {
    let mut msg = Vec::new();
    loop {
        let mut len = [0u8; 4];
        match s.read_exact(&mut len) {
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            other => other?,
        }
        // The peer is this file's `ping`; its length is the frame size.
        msg.resize(4 + u32::from_le_bytes(len) as usize, 0);
        msg[..4].copy_from_slice(&len);
        s.read_exact(&mut msg[4..])?;
        s.write_all(&msg)?;
    }
}

fn ping(
    mut client: impl Read + Write,
    echo: std::thread::JoinHandle<std::io::Result<()>>,
    len: usize,
    round_trips: usize,
) -> Result<f64, String> {
    let mut msg = (len as u32).to_le_bytes().to_vec();
    msg.extend((0..len).map(|i| i as u8));
    let mut back = vec![0u8; msg.len()];
    let mut us = Vec::with_capacity(round_trips);
    let mut result = Ok(());
    for i in 0..NODES + round_trips {
        let t0 = Instant::now();
        result = client
            .write_all(&msg)
            .and_then(|()| client.read_exact(&mut back));
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        if result.is_err() || back != msg {
            break;
        }
        if i >= NODES {
            us.push(dt);
        }
    }
    drop(client);
    let echoed = echo
        .join()
        .map_err(|_| "raw echo thread panicked".to_string())?;
    result.map_err(|e| format!("raw echo client: {e}"))?;
    echoed.map_err(|e| format!("raw echo thread: {e}"))?;
    if us.len() != round_trips {
        return Err("raw echo returned a different message".into());
    }
    Ok(stats::median(&us))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut r = Rng(7);
            (0..4).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng(7);
            (0..4).map(|_| r.next()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng(8);
            (0..4).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng(1);
        assert!((0..100).all(|_| r.below(3) < 3));
    }

    #[test]
    fn rtt_frames_carry_the_named_payload_and_decode() {
        let mut rng = Rng(1);
        for (words, payload) in [(32, 256), (512, 4096)] {
            let frame = rtt_frame(words, 16, &mut rng);
            let msg = WireMsg::from_bytes(&frame).unwrap();
            assert_eq!(msg.words().len() * 8, payload);
            assert!((msg.words().len() as u64) <= RTT_SEG_WORDS);
        }
    }

    #[test]
    fn raw_echo_round_trips_over_a_socket_pair() {
        let us = raw_rtt_us(NetKind::Uds, 256, 20).unwrap();
        assert!(us > 0.0);
    }

    #[test]
    fn chan_transport_round_trip_is_timed() {
        let mut rng = Rng(3);
        let frame = rtt_frame(32, 16, &mut rng);
        let mut chan = ChanTransport::new(NODES);
        assert!(transport_rtt_us(&mut chan, &frame, 10).unwrap() > 0.0);
    }
}
