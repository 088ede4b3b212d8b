//! **Figure 14** — per-type relative time cost of the policies produced
//! by the two training methods of Figure 13. Where standard RL failed to
//! converge by the cap, its policy can be visibly worse; the
//! selection-tree policy is exactly optimal for the empirical model.

use recovery_core::experiment::{sweep_comparison, TestRunConfig};
use recovery_core::selection_tree::SelectionTreeConfig;
use recovery_core::trainer::TrainerConfig;
use recovery_telemetry::Telemetry;

fn main() {
    let scale = recovery_bench::scale_from_args(0.25);
    let ctx = recovery_bench::prepare(scale);
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
        &Telemetry::disabled(),
    );
    let rows: Vec<Vec<String>> = cmp
        .rows
        .iter()
        .map(|r| {
            vec![
                r.rank.to_string(),
                format!(
                    "{:.3}",
                    cmp.tree_report.per_type[r.rank - 1].relative_cost()
                ),
                format!(
                    "{:.3}",
                    cmp.standard_report.per_type[r.rank - 1].relative_cost()
                ),
            ]
        })
        .collect();
    recovery_bench::print_table(
        "Figure 14: relative time cost, selection tree vs standard training",
        &["type", "with_tree", "without_tree"],
        &rows,
    );
    println!(
        "overall: with tree {:.4}, without {:.4}",
        cmp.tree_report.overall_relative_cost(),
        cmp.standard_report.overall_relative_cost()
    );
}
