//! **Figure 9** — total time cost of the trained policy vs the
//! user-defined policy across the four tests (on the cases the trained
//! policy handles, as in the paper §5.1). The paper reports >10% savings
//! in every test (89.02% of the original downtime at fraction 0.4).

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
        let user = run.trained_report.total_actual();
        let trained = run.trained_report.total_estimated();
        rows.push(vec![
            (i + 1).to_string(),
            format!("{:.3}", user / 1e6),
            format!("{:.3}", trained / 1e6),
            format!("{:.2}%", 100.0 * trained / user),
        ]);
    }
    recovery_bench::print_table(
        "Figure 9: total time cost, user-defined vs trained (handled cases)",
        &["test", "user_Ms", "trained_Ms", "trained/user"],
        &rows,
    );
}
