//! Extension experiments beyond the paper's figures:
//!
//! 1. **PRE redundant-communication elimination** (§4.3 / future work):
//!    the paper predicts "shallow, pde, and cg show opportunities for
//!    redundant communication elimination, which should increase
//!    performance even further". We run `OptLevel::full_pre()` and report
//!    transfers skipped and time deltas.
//! 2. **Block-size sensitivity** (§3/§6): the edge-effect argument — at
//!    larger blocks, small-extent apps (grav) lose more of their miss
//!    reduction to boundary blocks.

use fgdsm_apps::{grav, jacobi, suite};
use fgdsm_bench::{json_row, pct_reduction, scale, scale_label, NPROCS};
use fgdsm_hpf::{execute, ExecConfig, OptLevel};
use fgdsm_tempest::CostModel;

json_row! {
    struct PreRow {
        app: &'static str,
        transfers_performed: u64,
        transfers_skipped: u64,
        full_time_s: f64,
        pre_time_s: f64,
    }
}

json_row! {
    struct BlockRow {
        app: &'static str,
        block_bytes: usize,
        miss_reduction_pct: f64,
    }
}

fn main() {
    let s = scale();
    println!(
        "Extension 1: PRE redundant-communication elimination — {}\n",
        scale_label(s)
    );
    println!(
        "{:<10}{:>12}{:>10}{:>14}{:>14}",
        "app", "performed", "skipped", "full (s)", "full+pre (s)"
    );
    let mut pre_rows = Vec::new();
    for spec in suite(s) {
        let full = execute(&spec.program, &ExecConfig::sm_opt(NPROCS));
        let pre = execute(
            &spec.program,
            &ExecConfig::sm_opt(NPROCS).with_opt(OptLevel::full_pre()),
        );
        let row = PreRow {
            app: spec.name,
            transfers_performed: pre.pre_performed,
            transfers_skipped: pre.pre_skipped,
            full_time_s: full.total_s(),
            pre_time_s: pre.total_s(),
        };
        println!(
            "{:<10}{:>12}{:>10}{:>14.3}{:>14.3}",
            row.app,
            row.transfers_performed,
            row.transfers_skipped,
            row.full_time_s,
            row.pre_time_s
        );
        assert!(
            row.pre_time_s <= row.full_time_s * 1.001,
            "{}: PRE must never slow execution",
            row.app
        );
        pre_rows.push(row);
    }
    fgdsm_bench::save_json("ext_pre", &pre_rows);

    println!("\nExtension 2: block-size sensitivity of the miss reduction\n");
    println!("{:<10}{:>8}{:>20}", "app", "block", "miss reduction");
    let mut block_rows = Vec::new();
    for (name, prog) in [
        ("jacobi", jacobi::build(&jacobi::Params::at(s))),
        ("grav", grav::build(&grav::Params::at(s))),
    ] {
        let mut per_app = Vec::new();
        for block_bytes in [32usize, 64, 128] {
            let cost = CostModel {
                block_bytes,
                ..CostModel::paper_dual_cpu()
            };
            let mut un = ExecConfig::sm_unopt(NPROCS);
            un.cost = cost;
            let mut op = ExecConfig::sm_opt(NPROCS);
            op.cost = cost;
            let u = execute(&prog, &un);
            let o = execute(&prog, &op);
            let red = pct_reduction(u.report.avg_misses(), o.report.avg_misses());
            println!("{:<10}{:>7}B{:>19.1}%", name, block_bytes, red);
            per_app.push(red);
            block_rows.push(BlockRow {
                app: name,
                block_bytes,
                miss_reduction_pct: red,
            });
        }
        if name == "grav" {
            // The edge-effect argument: grav keeps less of its reduction
            // at 128-byte blocks than at 32-byte blocks.
            assert!(
                per_app[2] < per_app[0],
                "grav: miss reduction should degrade with block size ({per_app:?})"
            );
        }
    }
    // And grav is hurt far more than jacobi at 128 bytes (Table 3: 38.2%
    // vs 96.7%).
    let at128 = |app: &str| {
        block_rows
            .iter()
            .find(|r| r.app == app && r.block_bytes == 128)
            .unwrap()
            .miss_reduction_pct
    };
    assert!(
        at128("jacobi") > at128("grav"),
        "jacobi must retain more of its miss reduction than grav at 128B"
    );
    println!("\nshape checks passed: PRE never hurts; grav's reduction degrades with block size");
    fgdsm_bench::save_json("ext_blocksize", &block_rows);
}
