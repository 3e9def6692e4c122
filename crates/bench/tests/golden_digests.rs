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

use fgdsm_apps::{extended_suite, Scale};
use fgdsm_bench::NPROCS;
use fgdsm_hpf::{execute_traced, ExecConfig};

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

#[test]
fn canonical_artifacts_match_the_golden_table() {
    let mut measured: Vec<Row> = Vec::new();
    let mut measured_data: Vec<DataRow> = Vec::new();
    for spec in extended_suite(Scale::Test) {
        for (backend, cfg) in [
            ("sm_unopt", ExecConfig::sm_unopt(NPROCS)),
            ("sm_opt", ExecConfig::sm_opt(NPROCS)),
            ("mp", ExecConfig::mp(NPROCS)),
        ] {
            let (run, trace) = execute_traced(&spec.program, &cfg.serial());
            measured.push((
                spec.name,
                backend,
                fnv1a(run.report.to_json().as_bytes()),
                fnv1a(trace.as_bytes()),
                fnv1a(run.report.profile_json().as_bytes()),
            ));
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
            measured_data.push((spec.name, backend, fnv1a(&data), fnv1a(&scalars)));
        }
    }
    assert_eq!(measured.len() * 3, 63);
    check(
        "canonical artifacts",
        &measured,
        GOLDEN,
        |(a, b, r, t, p)| format!("({a:?}, {b:?}, {r:#018x}, {t:#018x}, {p:#018x})"),
    );
    check(
        "data or scalars",
        &measured_data,
        GOLDEN_DATA,
        |(a, b, d, s)| format!("({a:?}, {b:?}, {d:#018x}, {s:#018x})"),
    );
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
