//! Runs the complete reproduction in one process — every table and figure
//! of the paper on one shared synthetic log — and prints the results in
//! order. This is the binary behind `EXPERIMENTS.md`.

use recovery_core::experiment::{
    fig3_cohesion_curve, fig5_type_counts, fig6_type_downtime, fig7_platform_validation,
    sweep_comparison, table1_example, ExperimentContext, TestRun, TestRunConfig,
};
use recovery_core::selection_tree::SelectionTreeConfig;
use recovery_core::trainer::TrainerConfig;
use recovery_telemetry::ObserverHandle;

fn main() {
    let scale = recovery_bench::scale_from_args(0.25);
    let threads = recovery_bench::threads_from_args();
    eprintln!("# training with {threads} worker threads (--threads N overrides)");
    let timings = recovery_bench::PhaseTimings::from_args();
    let mut generated = {
        let _phase = timings.phase("generate");
        recovery_bench::generate(scale)
    };
    let entries = generated.log.len();

    // --- Table 1 ---
    println!("== Table 1: example recovery process (machine name omitted) ==");
    if let Some(text) = table1_example(&mut generated.log, 2) {
        print!("{text}");
    }
    println!();

    let processes = generated.log.split_processes();
    println!(
        "log: {entries} entries, {} complete recovery processes\n",
        processes.len()
    );

    // --- Figure 3 ---
    let curve = fig3_cohesion_curve(&processes);
    let rows: Vec<Vec<String>> = curve
        .iter()
        .map(|&(m, f)| vec![format!("{m:.1}"), format!("{f:.4}")])
        .collect();
    recovery_bench::print_table(
        "Figure 3: symptom cohesion vs minp",
        &["minp", "fraction"],
        &rows,
    );

    let ctx = {
        let _phase = timings.phase("prepare");
        ExperimentContext::prepare(processes, recovery_bench::MINP, recovery_bench::TOP_K)
    };
    println!(
        "noise filter: kept {:.2}% of processes; {} symptom clusters; top-{} types cover {:.2}%\n",
        100.0 * ctx.kept_fraction(),
        ctx.cluster_count,
        recovery_bench::TOP_K,
        100.0 * ctx.ranking.top_k_coverage(recovery_bench::TOP_K)
    );

    // --- Figures 5 and 6 ---
    let counts = fig5_type_counts(&ctx);
    let downtime = fig6_type_downtime(&ctx);
    let rows: Vec<Vec<String>> = counts
        .iter()
        .zip(&downtime)
        .map(|(&(rank, c), &(_, d))| vec![rank.to_string(), c.to_string(), format!("{d:.0}")])
        .collect();
    recovery_bench::print_table(
        "Figures 5 + 6: per-type process count and total downtime (s)",
        &["type", "count", "downtime_s"],
        &rows,
    );

    // --- Figure 7 ---
    let validation = {
        let _phase = timings.phase("fig7_validation");
        fig7_platform_validation(&ctx, 0.4)
    };
    let worst = validation
        .per_type
        .iter()
        .filter(|t| t.processes > 0)
        .map(|t| (t.relative_cost() - 1.0).abs())
        .fold(0.0f64, f64::max);
    println!(
        "Figure 7 (platform validation): overall {:.4}, biggest per-type deviation {:.2}%\n",
        validation.overall_relative_cost(),
        100.0 * worst
    );

    // --- Figures 8, 9, 10, 11, 12 ---
    let runs: Vec<TestRun> = recovery_bench::TEST_FRACTIONS
        .iter()
        .map(|&f| {
            eprintln!("# training at fraction {f} ...");
            let _phase = timings.phase("test_run");
            TestRun::execute(
                &recovery_bench::figure_test_config(f).with_threads(threads),
                &ctx,
                timings.telemetry(),
                &ObserverHandle::none(),
            )
            .0
        })
        .collect();

    let rows: Vec<Vec<String>> = (0..ctx.types.len())
        .map(|i| {
            let mut row = vec![(i + 1).to_string()];
            for run in &runs {
                row.push(format!(
                    "{:.3}",
                    run.trained_report.per_type[i].relative_cost()
                ));
            }
            for run in &runs {
                row.push(format!("{:.2}", run.trained_report.per_type[i].coverage()));
            }
            row.push(format!(
                "{:.3}",
                runs[0].hybrid_report.per_type[i].relative_cost()
            ));
            row.push(format!(
                "{:.3}",
                runs[1].hybrid_report.per_type[i].relative_cost()
            ));
            row
        })
        .collect();
    recovery_bench::print_table(
        "Figures 8 + 10 + 11: per-type trained relative cost (4 fractions), coverage (4 fractions), hybrid (0.2, 0.4)",
        &[
            "type", "rel.2", "rel.4", "rel.6", "rel.8", "cov.2", "cov.4", "cov.6", "cov.8",
            "hyb.2", "hyb.4",
        ],
        &rows,
    );

    let mut rows = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let t_user = run.trained_report.total_actual();
        let t_est = run.trained_report.total_estimated();
        let h_user = run.hybrid_report.total_actual();
        let h_est = run.hybrid_report.total_estimated();
        rows.push(vec![
            (i + 1).to_string(),
            format!("{:.3}", t_user / 1e6),
            format!("{:.3}", t_est / 1e6),
            format!("{:.2}%", 100.0 * t_est / t_user),
            format!("{:.2}%", 100.0 * h_est / h_user),
            format!("{:.4}", run.trained_report.overall_coverage()),
        ]);
    }
    recovery_bench::print_table(
        "Figures 9 + 12: totals per test (user actual vs trained / hybrid estimates)",
        &[
            "test",
            "user_Ms",
            "trained_Ms",
            "trained/user",
            "hybrid/user",
            "coverage",
        ],
        &rows,
    );

    // --- Figures 13 and 14 ---
    eprintln!("# running the training-rate comparison (slowest step) ...");
    let config = TestRunConfig {
        top_k: recovery_bench::TOP_K,
        minp: recovery_bench::MINP,
        ..TestRunConfig::new(0.4)
    }
    .with_trainer(TrainerConfig::paper_faithful())
    .with_threads(threads);
    let cmp = {
        let _phase = timings.phase("sweep_comparison");
        sweep_comparison(
            &config,
            &SelectionTreeConfig::default(),
            &ctx,
            timings.telemetry(),
        )
    };
    let rows: Vec<Vec<String>> = cmp
        .rows
        .iter()
        .map(|r| {
            vec![
                r.rank.to_string(),
                r.sweeps_with_tree.to_string(),
                r.sweeps_without_tree.to_string(),
                if r.standard_converged { "yes" } else { "NO" }.to_string(),
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
        "Figures 13 + 14: sweeps to convergence and resulting relative cost",
        &[
            "type",
            "tree_sweeps",
            "std_sweeps",
            "std_conv",
            "tree_rel",
            "std_rel",
        ],
        &rows,
    );
    let with: u64 = cmp.rows.iter().map(|r| r.sweeps_with_tree).sum();
    let without: u64 = cmp.rows.iter().map(|r| r.sweeps_without_tree).sum();
    println!(
        "total sweeps: with tree {with}, without {without} ({:.1}x speedup)",
        without as f64 / with as f64
    );
    timings.report();
}
