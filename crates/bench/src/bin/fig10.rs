//! **Figure 10** — coverage of the trained policy: the fraction of each
//! type's test processes the policy can handle, per training fraction.
//! Coverage exceeds 90% for almost every type and rises with more
//! training data.

use recovery_core::experiment::TestRun;
use recovery_telemetry::{ObserverHandle, Telemetry};

fn main() {
    let scale = recovery_bench::scale_from_args(0.25);
    let ctx = recovery_bench::prepare(scale);
    let runs: Vec<TestRun> = recovery_bench::TEST_FRACTIONS
        .iter()
        .map(|&f| {
            eprintln!("# training at fraction {f} ...");
            TestRun::execute(
                &recovery_bench::figure_test_config(f),
                &ctx,
                &Telemetry::disabled(),
                &ObserverHandle::none(),
            )
            .0
        })
        .collect();
    let rows: Vec<Vec<String>> = (0..ctx.types.len())
        .map(|i| {
            let mut row = vec![(i + 1).to_string()];
            for run in &runs {
                row.push(format!("{:.3}", run.trained_report.per_type[i].coverage()));
            }
            row
        })
        .collect();
    recovery_bench::print_table(
        "Figure 10: coverage of the trained policy per type",
        &["type", "0.2", "0.4", "0.6", "0.8"],
        &rows,
    );
    for run in &runs {
        println!(
            "fraction {:.1}: overall coverage {:.4}",
            run.train_fraction,
            run.trained_report.overall_coverage()
        );
    }
}
