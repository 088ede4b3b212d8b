//! **Figure 11** — per-type comparison of the pure trained policy and the
//! hybrid policy (trained + user fallback) for training fractions 0.2 (a)
//! and 0.4 (b). With little training data the hybrid diverges on types
//! whose test set contains unseen patterns; with more data they agree.

use recovery_core::experiment::TestRun;
use recovery_telemetry::{ObserverHandle, Telemetry};

fn main() {
    let scale = recovery_bench::scale_from_args(0.25);
    let ctx = recovery_bench::prepare(scale);
    for (panel, fraction) in [("(a)", 0.2), ("(b)", 0.4)] {
        eprintln!("# training at fraction {fraction} ...");
        let (run, _) = TestRun::execute(
            &recovery_bench::figure_test_config(fraction),
            &ctx,
            &Telemetry::disabled(),
            &ObserverHandle::none(),
        );
        let rows: Vec<Vec<String>> = (0..ctx.types.len())
            .map(|i| {
                vec![
                    (i + 1).to_string(),
                    format!("{:.3}", run.trained_report.per_type[i].relative_cost()),
                    format!("{:.3}", run.hybrid_report.per_type[i].relative_cost()),
                ]
            })
            .collect();
        recovery_bench::print_table(
            &format!("Figure 11{panel}: trained vs hybrid, training fraction {fraction}"),
            &["type", "trained", "hybrid"],
            &rows,
        );
    }
}
