//! Canonical artifacts pinned across *commits*: FNV-1a digests of the
//! report JSON, the trace JSON and the profile JSON of every
//! `extended_suite` app on `sm_unopt`, `sm_opt` and `mp` at `Scale::Test`.
//! The determinism suite proves these artifacts equal across modes at one
//! commit; this table is what a PR that says "virtual-time unchanged" has
//! to reproduce. The simulator is deterministic, so a mismatch is a
//! behavioural change, never noise.
//!
//! `GOLDEN_DATA` pins the numerics the same way: the bit patterns of
//! `RunResult::data` and of every scalar (name, then value, in the
//! table's order) for the same 21 runs. It was generated at the last
//! commit whose suite kernels addressed memory point by point, so a
//! kernel rewrite that says "bit-identical data" has to reproduce it.
//!
//! Regenerate (only for an *intended* virtual-time or numeric change,
//! and say so in CHANGES.md): `cargo test -p fgdsm-bench --test
//! golden_digests` prints the measured table on failure — paste it over
//! `GOLDEN` / `GOLDEN_DATA`.

use fgdsm_apps::{extended_suite, suite, Scale};
use fgdsm_bench::NPROCS;
use fgdsm_hpf::{execute, execute_traced, ExecConfig, Program, RunResult};
use fgdsm_tempest::{CostModel, CpuMode};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(app, backend, report, trace, profile)`.
type Row = (&'static str, &'static str, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("pde", "sm_unopt", 0x9f51e9ca0d594481, 0x726132e4594dea69, 0x03e9d48139ed46c6),
    ("pde", "sm_opt", 0x5954052ac544bb89, 0xec93a2db0a1a6a74, 0xf03288686cc0f714),
    ("pde", "mp", 0x36179fb09da4743e, 0x0d242258cfd7b928, 0x5671f5c9b318fff7),
    ("shallow", "sm_unopt", 0x03d545fe7e770a84, 0xf8f51cb5fa5905b4, 0xd0c1a1546daef8e4),
    ("shallow", "sm_opt", 0x48bf49d4831d4419, 0x55c319031b8fc8d5, 0x55b257906c10889f),
    ("shallow", "mp", 0xc4576b6deb6260a5, 0xecd7d5423eccb7f6, 0x18225e51773da813),
    ("grav", "sm_unopt", 0x971de38166c63cb8, 0xe115164aed7a94b2, 0xd48af1699ff14a68),
    ("grav", "sm_opt", 0x224a12ccf84dbde5, 0x400d98d6e3ffd8ed, 0x8f579698c16ba6a5),
    ("grav", "mp", 0xb181b5b0a58727e6, 0x0fc7afe4006b6f23, 0xb3bf38f241c556ad),
    ("lu", "sm_unopt", 0xd6b4a41060e1ba0d, 0x4b85f3012a2930ea, 0x258b10cc9d52fc83),
    ("lu", "sm_opt", 0x22071a270659d565, 0x3688764cc8e9442e, 0x3a09fd33995f72d4),
    ("lu", "mp", 0x7b9139c2bfd9ca7a, 0x7488173dbaa87cce, 0xc3d4cff29449b932),
    ("cg", "sm_unopt", 0xc294a007580bdcaf, 0xbf1becaa8c4e082f, 0xee9804942f0a5177),
    ("cg", "sm_opt", 0x84e7ad58e5c2d93a, 0x3a204dda41982ae9, 0x97bc580ea72f3410),
    ("cg", "mp", 0x57e9585a47ad310f, 0xa311754da24ca6fb, 0x72f30b4f38d2c9bd),
    ("jacobi", "sm_unopt", 0x352030637badaad9, 0x78258607fb316d5c, 0xbe7ec81b15ec4413),
    ("jacobi", "sm_opt", 0xd0b7d620b0894398, 0x634ba697073de287, 0x55a3ad88090bcca6),
    ("jacobi", "mp", 0x37e7c886607068e9, 0x00028391c046590e, 0x2fc6e1c6c8be3003),
    ("irreg", "sm_unopt", 0x6c044ddbd17e05ba, 0x9ad1ca63661ffa9a, 0x2a101d7e4ab14aed),
    ("irreg", "sm_opt", 0x6c044ddbd17e05ba, 0x9ad1ca63661ffa9a, 0x2a101d7e4ab14aed),
    ("irreg", "mp", 0x94c0e6931793cd12, 0xe41185006f3a23ef, 0xc58ec3effe8efa93),
];

/// `(app, backend, data, scalars)`.
type DataRow = (&'static str, &'static str, u64, u64);

#[rustfmt::skip]
const GOLDEN_DATA: &[DataRow] = &[
    ("pde", "sm_unopt", 0x8dfea21a2de3d192, 0x21fbc37a1d08647c),
    ("pde", "sm_opt", 0x8dfea21a2de3d192, 0x21fbc37a1d08647c),
    ("pde", "mp", 0x8dfea21a2de3d192, 0x21fbc37a1d08647c),
    ("shallow", "sm_unopt", 0x7153f6dbace20bea, 0x1971e78e0a543f65),
    ("shallow", "sm_opt", 0x7153f6dbace20bea, 0x1971e78e0a543f65),
    ("shallow", "mp", 0x7153f6dbace20bea, 0x1971e78e0a543f65),
    ("grav", "sm_unopt", 0x512c4e0b8eeea26b, 0xd65ee49495418bc8),
    ("grav", "sm_opt", 0x512c4e0b8eeea26b, 0xd65ee49495418bc8),
    ("grav", "mp", 0x512c4e0b8eeea26b, 0xd65ee49495418bc8),
    ("lu", "sm_unopt", 0x69dff83a5d3e28bf, 0xcbf29ce484222325),
    ("lu", "sm_opt", 0x69dff83a5d3e28bf, 0xcbf29ce484222325),
    ("lu", "mp", 0x69dff83a5d3e28bf, 0xcbf29ce484222325),
    ("cg", "sm_unopt", 0x8f3fdfe3deb29e45, 0x304694c642936ecb),
    ("cg", "sm_opt", 0x8f3fdfe3deb29e45, 0x304694c642936ecb),
    ("cg", "mp", 0x8f3fdfe3deb29e45, 0x304694c642936ecb),
    ("jacobi", "sm_unopt", 0xf4df091810ad3092, 0xe7c1b2428ea05fb6),
    ("jacobi", "sm_opt", 0xf4df091810ad3092, 0xe7c1b2428ea05fb6),
    ("jacobi", "mp", 0xf4df091810ad3092, 0xe7c1b2428ea05fb6),
    ("irreg", "sm_unopt", 0xa7fc300a347ac661, 0x077efbf6f7353a04),
    ("irreg", "sm_opt", 0xa7fc300a347ac661, 0x077efbf6f7353a04),
    ("irreg", "mp", 0xa7fc300a347ac661, 0x077efbf6f7353a04),
];

/// The digests of one run: its `Row` and its `DataRow`.
fn measure(
    app: &'static str,
    backend: &'static str,
    prog: &Program,
    cfg: &ExecConfig,
) -> (Row, DataRow) {
    let (run, trace) = execute_traced(prog, &cfg.clone().serial());
    let data: Vec<u8> = run
        .data
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    let scalars: Vec<u8> = run
        .scalars
        .iter()
        .flat_map(|(name, v)| [name.as_bytes(), &v.to_bits().to_le_bytes()].concat())
        .collect();
    (
        (
            app,
            backend,
            fnv1a(run.report.to_json().as_bytes()),
            fnv1a(trace.as_bytes()),
            fnv1a(run.report.profile_json().as_bytes()),
        ),
        (app, backend, fnv1a(&data), fnv1a(&scalars)),
    )
}

/// Check `runs` against both tables.
fn check_runs(runs: Vec<(Row, DataRow)>, golden: &[Row], golden_data: &[DataRow]) {
    let (measured, measured_data): (Vec<Row>, Vec<DataRow>) = runs.into_iter().unzip();
    check(
        "canonical artifacts",
        &measured,
        golden,
        |(a, b, r, t, p)| format!("({a:?}, {b:?}, {r:#018x}, {t:#018x}, {p:#018x})"),
    );
    check(
        "data or scalars",
        &measured_data,
        golden_data,
        |(a, b, d, s)| format!("({a:?}, {b:?}, {d:#018x}, {s:#018x})"),
    );
}

#[test]
fn canonical_artifacts_match_the_golden_table() {
    let mut runs = Vec::new();
    for spec in extended_suite(Scale::Test) {
        for (backend, cfg) in [
            ("sm_unopt", ExecConfig::sm_unopt(NPROCS)),
            ("sm_opt", ExecConfig::sm_opt(NPROCS)),
            ("mp", ExecConfig::mp(NPROCS)),
        ] {
            runs.push(measure(spec.name, backend, &spec.program, &cfg));
        }
    }
    assert_eq!(runs.len() * 3, 63);
    check_runs(runs, GOLDEN, GOLDEN_DATA);
}

/// `(app, backend, report, trace, profile)` of every `extended_suite` app
/// at `Scale::Test` under the write-update protocol, then of `lu`, `pde`
/// and `jacobi` at `Scale::Bench` — the only suite arrays whose per-node
/// chunks are whole pages, so the only runs where a home loses and
/// re-faults on blocks of pages of its own — on `sm_unopt` and `sm_opt`.
/// Generated before the default walk stopped visiting the blocks a node
/// holds: write-update's standing writers take bookkeeping on every
/// written block, held or not, and no other row runs it.
#[rustfmt::skip]
const GOLDEN_WALK: &[Row] = &[
    ("pde", "sm_unopt_wu", 0xfcc44110a095d897, 0x16d4107d6d1265c4, 0xc16fa2f21987cf78),
    ("shallow", "sm_unopt_wu", 0x1d84eccbf20d09d9, 0xfb18e593a1d4ac3d, 0x9bf1143ccb997058),
    ("grav", "sm_unopt_wu", 0x86657f97e6525285, 0xc5d158e08c9a6c28, 0x69aa24a5c0265c30),
    ("lu", "sm_unopt_wu", 0x9bb41e13b30bfad9, 0xc55eb05ec5fd889b, 0xc7b2a3513874f2c5),
    ("cg", "sm_unopt_wu", 0x56de5bfb3dfb986c, 0xe01d892184c8d761, 0x5fba5dc4105fdefa),
    ("jacobi", "sm_unopt_wu", 0x2aec56429c915cdb, 0xfcf81050843292b9, 0xdc800f99492ba223),
    ("irreg", "sm_unopt_wu", 0x0cae98709e0d65be, 0x0c086b838887f0b1, 0xf9645d9661355a99),
    ("pde", "sm_unopt", 0x1355ea520d112a36, 0x856f36b544061806, 0xa3d95936862f73d1),
    ("pde", "sm_opt", 0x0f543edabeffc616, 0x79a139682e3bee32, 0xa9a99ca4ce4fab38),
    ("lu", "sm_unopt", 0xebaa5c207016c13c, 0x95895e30ed43bbcd, 0xc69ae18d7de0f3c7),
    ("lu", "sm_opt", 0x39a203baa0ca6143, 0x31095c402d2385b1, 0xab1ddaaf0c56ab74),
    ("jacobi", "sm_unopt", 0x380c98b0da30c29c, 0x083e4fc48e291cee, 0xa1a05da05321d8ed),
    ("jacobi", "sm_opt", 0x376ff88288d99b30, 0x529db98bfc8ed75b, 0x8fccfc5d5d2bfa86),
];

/// `(app, backend, data, scalars)` of the same runs.
#[rustfmt::skip]
const GOLDEN_WALK_DATA: &[DataRow] = &[
    ("pde", "sm_unopt_wu", 0x8dfea21a2de3d192, 0x21fbc37a1d08647c),
    ("shallow", "sm_unopt_wu", 0x7153f6dbace20bea, 0x1971e78e0a543f65),
    ("grav", "sm_unopt_wu", 0x512c4e0b8eeea26b, 0xd65ee49495418bc8),
    ("lu", "sm_unopt_wu", 0x69dff83a5d3e28bf, 0xcbf29ce484222325),
    ("cg", "sm_unopt_wu", 0x8f3fdfe3deb29e45, 0x304694c642936ecb),
    ("jacobi", "sm_unopt_wu", 0xf4df091810ad3092, 0xe7c1b2428ea05fb6),
    ("irreg", "sm_unopt_wu", 0xa7fc300a347ac661, 0x077efbf6f7353a04),
    ("pde", "sm_unopt", 0x7db0d2071eb5ada5, 0x5b1bea83153b67e3),
    ("pde", "sm_opt", 0x7db0d2071eb5ada5, 0x5b1bea83153b67e3),
    ("lu", "sm_unopt", 0x37a1e8e34ff083a2, 0xcbf29ce484222325),
    ("lu", "sm_opt", 0x37a1e8e34ff083a2, 0xcbf29ce484222325),
    ("jacobi", "sm_unopt", 0x3a0eeeea6b64334e, 0x53775534e9e9cddf),
    ("jacobi", "sm_opt", 0x3a0eeeea6b64334e, 0x53775534e9e9cddf),
];

#[test]
fn write_update_and_paged_bench_runs_match_the_golden_table() {
    let mut runs = Vec::new();
    for spec in extended_suite(Scale::Test) {
        let cfg = ExecConfig::sm_unopt(NPROCS).write_update();
        runs.push(measure(spec.name, "sm_unopt_wu", &spec.program, &cfg));
    }
    let paged = suite(Scale::Bench).into_iter();
    for spec in paged.filter(|s| ["lu", "pde", "jacobi"].contains(&s.name)) {
        for (backend, cfg) in [
            ("sm_unopt", ExecConfig::sm_unopt(NPROCS)),
            ("sm_opt", ExecConfig::sm_opt(NPROCS)),
        ] {
            runs.push(measure(spec.name, backend, &spec.program, &cfg));
        }
    }
    assert_eq!(runs.len(), 13);
    check_runs(runs, GOLDEN_WALK, GOLDEN_WALK_DATA);
}

/// An execute nobody traces keeps no trace ring, so its fault runs are
/// serviced as one transaction and fold in closed form where a traced
/// one services every fault block by block: the two must leave the same
/// report, profile, data and scalars. Every `extended_suite`
/// app at `Scale::Test` and `Scale::Bench`, on `sm_unopt`, `sm_opt` and
/// write-update, under `cost`; where a golden row exists (dual-cpu runs),
/// the untraced report is that row's too. Returns the rows compared.
fn untraced_matches_traced(cost: CostModel) -> usize {
    let mut compared = 0;
    for scale in [Scale::Test, Scale::Bench] {
        for spec in extended_suite(scale) {
            for (backend, cfg) in [
                ("sm_unopt", ExecConfig::sm_unopt(NPROCS)),
                ("sm_opt", ExecConfig::sm_opt(NPROCS)),
                ("sm_unopt_wu", ExecConfig::sm_unopt(NPROCS).write_update()),
            ] {
                let cfg = ExecConfig { cost, ..cfg }.serial();
                let (traced, _) = execute_traced(&spec.program, &cfg);
                let run = execute(&spec.program, &cfg);
                let what = format!("{} {backend} {scale:?} {:?}-cpu", spec.name, cost.cpu);
                let report = run.report.to_json();
                assert_eq!(report, traced.report.to_json(), "{what}: report");
                assert_eq!(
                    run.report.profile_json(),
                    traced.report.profile_json(),
                    "{what}: profile"
                );
                let bits = |v: &f64| v.to_bits();
                let data = |r: &RunResult| r.data.iter().map(bits).collect::<Vec<_>>();
                assert_eq!(data(&run), data(&traced), "{what}: data");
                let scalars = |r: &RunResult| {
                    r.scalars
                        .iter()
                        .map(|(name, v)| (*name, bits(v)))
                        .collect::<Vec<_>>()
                };
                assert_eq!(scalars(&run), scalars(&traced), "{what}: scalars");
                let table = match (scale, backend) {
                    (Scale::Test, "sm_unopt_wu") => GOLDEN_WALK,
                    (Scale::Test, _) => GOLDEN,
                    (_, "sm_unopt_wu") => &[],
                    _ => GOLDEN_WALK,
                };
                let row = table.iter().find(|r| (r.0, r.1) == (spec.name, backend));
                if let (Some(row), CpuMode::Dual) = (row, cost.cpu) {
                    assert_eq!(fnv1a(report.as_bytes()), row.2, "{what}: golden report");
                    compared += 1;
                }
            }
        }
    }
    compared
}

#[test]
fn untraced_executes_match_traced_ones_dual_cpu() {
    let compared = untraced_matches_traced(CostModel::paper_dual_cpu());
    assert_eq!(compared, 14 + 7 + 6, "golden rows compared");
}

/// Single-cpu: handler charges move the clocks a replay advances.
#[test]
fn untraced_executes_match_traced_ones_single_cpu() {
    untraced_matches_traced(CostModel::paper_single_cpu());
}

/// Fail with the measured table, ready to paste, if it is not `golden`.
fn check<R: PartialEq>(what: &str, measured: &[R], golden: &[R], row: impl Fn(&R) -> String) {
    if measured != golden {
        let table: String = measured
            .iter()
            .map(|r| format!("    {},\n", row(r)))
            .collect();
        let moved: Vec<String> = measured
            .iter()
            .zip(golden)
            .filter(|(m, g)| m != g)
            .map(|(m, _)| row(m))
            .collect();
        panic!("{what} moved ({moved:?}); measured table:\n{table}");
    }
}
