//! # fgdsm-apps: the paper's application suite (Table 2)
//!
//! | Application | Source of HPF version | Problem size | Memory |
//! |---|---|---|---|
//! | pde | Genesis, HPF by PGI | grid 128, 40 iters (RELAX only) | 56 MB |
//! | shallow | NCAR, HPF by PGI | 1025×513 grid, 100 iters | 28 MB |
//! | grav | HPF by Syracuse | grid 128, 5 iters | 17 MB |
//! | lu | Stanford, HPF by authors | 1024×1024 matrix (5 runs) | 4 MB |
//! | cg | HPF by MIT | 180×360 matrix, 630 iters | 4.6 MB |
//! | jacobi | HPF by authors | 2048×2048 matrix, 100 iters | 32 MB |
//!
//! Each module re-implements the application's communication structure —
//! the producer-consumer sections, reductions and loop nesting the paper's
//! compiler analyzes — as a mini-HPF [`fgdsm_hpf::Program`], with a
//! sequential Rust reference for validation. Sizes are parameterized:
//! `Params::paper()` is the Table 2 configuration; `Params::test()` is a
//! scaled-down configuration for the test suite. (The original codes were
//! single-precision; ours are `f64`, so in-memory footprints are roughly
//! 2× Table 2's — recorded per-app in EXPERIMENTS.md.)

#![forbid(unsafe_code)]

pub mod cg;
pub mod grav;
pub mod irreg;
pub mod jacobi;
pub mod lu;
pub mod pde;
pub mod shallow;

use fgdsm_hpf::Program;

/// Metadata + program for one suite member, as reported in Table 2.
pub struct AppSpec {
    pub name: &'static str,
    pub source: &'static str,
    pub problem: String,
    pub program: Program,
    /// Time-step/iteration count (used for per-iteration normalization).
    pub iters: i64,
}

impl AppSpec {
    /// Memory footprint in MB (Table 2's "Memory" column, f64 elements).
    pub fn memory_mb(&self) -> f64 {
        self.program.memory_bytes() as f64 / (1024.0 * 1024.0)
    }
}

/// Problem-size selector for the whole suite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Table 2's sizes.
    Paper,
    /// Reduced sizes for quick benchmark runs (~1 min total).
    Bench,
    /// Tiny sizes for the test suite.
    Test,
}

/// Per-dimension multiplier that grows total work ~linearly with
/// `factor` for a kernel whose cost is `dims`-ic in the stretched
/// extent: the nearest integer to the `dims`-th root of `factor`.
pub(crate) fn dim_scale(factor: usize, dims: u32) -> usize {
    (factor as f64).powf(1.0 / f64::from(dims)).round().max(1.0) as usize
}

/// Build the entire application suite at a given scale, in Table 2 order.
pub fn suite(scale: Scale) -> Vec<AppSpec> {
    suite_scaled(scale, 1)
}

/// [`suite`] with each app's problem stretched so per-superstep (or
/// total) work grows roughly linearly with `factor` — the work axis of
/// the host-time benchmark. `factor == 1` is exactly [`suite`].
pub fn suite_scaled(scale: Scale, factor: usize) -> Vec<AppSpec> {
    vec![
        pde::spec(&pde::Params::at(scale).scaled(factor)),
        shallow::spec(&shallow::Params::at(scale).scaled(factor)),
        grav::spec(&grav::Params::at(scale).scaled(factor)),
        lu::spec(&lu::Params::at(scale).scaled(factor)),
        cg::spec(&cg::Params::at(scale).scaled(factor)),
        jacobi::spec(&jacobi::Params::at(scale).scaled(factor)),
    ]
}

/// The Table 2 suite plus the extension workloads (currently `irreg`,
/// the paper's §7 future-work affine/indirect mix).
pub fn extended_suite(scale: Scale) -> Vec<AppSpec> {
    extended_suite_scaled(scale, 1)
}

/// [`extended_suite`] under the [`suite_scaled`] work-growth factor.
pub(crate) fn extended_suite_scaled(scale: Scale, factor: usize) -> Vec<AppSpec> {
    let mut apps = suite_scaled(scale, factor);
    apps.push(irreg::spec(&irreg::Params::at(scale).scaled(factor)));
    apps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_builds_at_all_scales() {
        for scale in [Scale::Test, Scale::Bench] {
            let apps = suite(scale);
            assert_eq!(apps.len(), 6);
            let names: Vec<_> = apps.iter().map(|a| a.name).collect();
            assert_eq!(names, ["pde", "shallow", "grav", "lu", "cg", "jacobi"]);
        }
    }

    #[test]
    fn paper_scale_memory_matches_table2_shape() {
        // f64 instead of the original REAL*4, so expect ≈2× Table 2 for
        // the single-precision apps; grav was already counted in 8-byte
        // units there. Only sanity-check the ordering and magnitude here.
        let apps = suite(Scale::Paper);
        let mb: std::collections::BTreeMap<_, _> =
            apps.iter().map(|a| (a.name, a.memory_mb())).collect();
        assert!(mb["jacobi"] > 60.0 && mb["jacobi"] < 70.0); // 2×32
        assert!(mb["pde"] > 45.0 && mb["pde"] < 60.0);
        assert!(mb["lu"] > 7.0 && mb["lu"] < 10.0); // 2×4
        assert!(mb["cg"] < 8.0);
        assert!(mb["grav"] > 15.0 && mb["grav"] < 20.0); // already 17
        assert!(mb["shallow"] > 40.0 && mb["shallow"] < 70.0); // 2×28
    }

    #[test]
    fn scaled_suite_grows_every_app() {
        let base = extended_suite(Scale::Test);
        let big = extended_suite_scaled(Scale::Test, 8);
        assert_eq!(base.len(), big.len());
        for (b, s) in base.iter().zip(&big) {
            assert_eq!(b.name, s.name);
            assert!(
                s.program.memory_bytes() > b.program.memory_bytes(),
                "{} did not grow at factor 8",
                s.name
            );
        }
    }

    #[test]
    fn scale_factor_of_one_is_identity() {
        let base = suite(Scale::Test);
        let same = suite_scaled(Scale::Test, 1);
        for (b, s) in base.iter().zip(&same) {
            assert_eq!(b.problem, s.problem);
            assert_eq!(b.program.memory_bytes(), s.program.memory_bytes());
        }
    }

    #[test]
    fn dim_scale_tracks_roots() {
        assert_eq!(dim_scale(1, 3), 1);
        assert_eq!(dim_scale(8, 3), 2);
        assert_eq!(dim_scale(27, 3), 3);
        assert_eq!(dim_scale(8, 1), 8);
        assert_eq!(dim_scale(4, 2), 2);
    }
}
