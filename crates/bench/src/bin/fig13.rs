//! **Figure 13** — training sweeps to convergence per error type, with
//! and without the selection tree (training fraction 0.4). The standard
//! method runs value-convergence detection under a 160k sweep cap; the
//! selection tree stops at candidate stability and scans exactly.

use recovery_core::experiment::{sweep_comparison, TestRunConfig};
use recovery_core::selection_tree::SelectionTreeConfig;
use recovery_core::trainer::TrainerConfig;

fn main() {
    let scale = recovery_bench::scale_from_args(0.25);
    let timings = recovery_bench::PhaseTimings::from_args();
    let ctx = {
        let _phase = timings.phase("prepare");
        recovery_bench::prepare(scale)
    };
    // The paper's standard-RL arm: literal Figure 2 under the 160k cap.
    let config = TestRunConfig {
        top_k: recovery_bench::TOP_K,
        minp: recovery_bench::MINP,
        ..TestRunConfig::new(0.4)
    }
    .with_trainer(TrainerConfig::paper_faithful());
    eprintln!(
        "# training all types twice (standard + selection tree); this is the slow figure ..."
    );
    let cmp = sweep_comparison(
        &config,
        &SelectionTreeConfig::default(),
        &ctx,
        timings.telemetry(),
    );
    let rows: Vec<Vec<String>> = cmp
        .rows
        .iter()
        .map(|r| {
            vec![
                r.rank.to_string(),
                r.sweeps_with_tree.to_string(),
                r.sweeps_without_tree.to_string(),
                if r.standard_converged { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    recovery_bench::print_table(
        "Figure 13: sweeps before convergence, with vs without selection tree",
        &["type", "with_tree", "without_tree", "std_converged"],
        &rows,
    );
    let with: u64 = cmp.rows.iter().map(|r| r.sweeps_with_tree).sum();
    let without: u64 = cmp.rows.iter().map(|r| r.sweeps_without_tree).sum();
    println!(
        "total sweeps: with tree {with}, without {without} ({:.1}x)",
        without as f64 / with as f64
    );
    timings.report();
}
