//! **Figure 12** — total time cost of the hybrid policy vs the
//! user-defined policy across the four tests. The hybrid covers *all*
//! cases (fallback) yet keeps the ≈10% savings (the paper reports 89.18%
//! of the original downtime at fraction 0.4).

use recovery_core::experiment::TestRun;
use recovery_telemetry::{ObserverHandle, Telemetry};

fn main() {
    let scale = recovery_bench::scale_from_args(0.25);
    let ctx = recovery_bench::prepare(scale);
    let mut rows = Vec::new();
    for (i, &f) in recovery_bench::TEST_FRACTIONS.iter().enumerate() {
        eprintln!("# training at fraction {f} ...");
        let (run, _) = TestRun::execute(
            &recovery_bench::figure_test_config(f),
            &ctx,
            &Telemetry::disabled(),
            &ObserverHandle::none(),
        );
        let user = run.hybrid_report.total_actual();
        let hybrid = run.hybrid_report.total_estimated();
        rows.push(vec![
            (i + 1).to_string(),
            format!("{:.3}", user / 1e6),
            format!("{:.3}", hybrid / 1e6),
            format!("{:.2}%", 100.0 * hybrid / user),
            format!("{:.4}", run.hybrid_report.overall_coverage()),
        ]);
    }
    recovery_bench::print_table(
        "Figure 12: total time cost, user-defined vs hybrid (all cases)",
        &["test", "user_Ms", "hybrid_Ms", "hybrid/user", "coverage"],
        &rows,
    );
}
