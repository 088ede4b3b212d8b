//! Policy shoot-out: every policy in the workspace evaluated on the same
//! held-out test set — the user-defined ladder, tabular Q-learning,
//! the selection-tree scan, and the per-type exact-DP oracle (the best
//! any replay policy can do on the training evidence).
//!
//! Run with: `cargo run --release --example policy_comparison`

use recovery_core::evaluate::{evaluate, time_ordered_split};
use recovery_core::exact::EmpiricalTypeModel;
use recovery_core::experiment::ExperimentContext;
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_core::policy::{DecidePolicy, UserStatePolicy};
use recovery_core::selection_tree::{SelectionTreeConfig, SelectionTreeTrainer};
use recovery_core::state::RecoveryState;
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_simlog::{GeneratorConfig, LogGenerator, RepairAction};

/// Wraps per-type exact DP solutions as one policy (the oracle).
#[derive(Debug, Default)]
struct OraclePolicy {
    solutions: Vec<recovery_core::exact::ExactSolution>,
}

impl DecidePolicy for OraclePolicy {
    fn decide(&self, state: &RecoveryState) -> Option<RepairAction> {
        self.solutions.iter().find_map(|s| s.decide(state))
    }
    fn name(&self) -> &str {
        "exact-dp-oracle"
    }
}

fn main() {
    let mut generated = LogGenerator::new(GeneratorConfig::paper_scale(0.05)).generate();
    let processes = generated.log.split_processes();
    let ctx = ExperimentContext::prepare(processes, 0.1, 20);
    let (train, test) = time_ordered_split(&ctx.clean, 0.4);
    println!(
        "{} training / {} test processes, {} types",
        train.len(),
        test.len(),
        ctx.types.len()
    );

    let trainer = OfflineTrainer::new(train, TrainerConfig::default());

    // Tabular Q-learning (the paper's §3 method).
    eprintln!("training tabular Q-learning ...");
    let (tabular, _) = trainer.train(&ctx.types);

    // Selection-tree accelerated training (the paper's §5.3 method).
    eprintln!("training with the selection tree ...");
    let tree = SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default());
    let (tree_policy, _) = tree.train(&ctx.types);

    // The exact-DP oracle over the same training evidence.
    let mut oracle = OraclePolicy::default();
    for &et in &ctx.types {
        let procs = trainer.processes_of(et);
        if !procs.is_empty() {
            let model = EmpiricalTypeModel::new(et, procs, trainer.platform());
            oracle.solutions.push(model.optimal(20));
        }
    }

    let platform = SimulationPlatform::from_processes(train, CostEstimation::AverageOnly);
    println!("\n{:<18} {:>10} {:>10}", "policy", "relative", "coverage");
    let user = UserStatePolicy::default();
    let rows: Vec<(&str, &dyn DecidePolicy)> = vec![
        ("user-defined", &user),
        ("tabular-q", &tabular),
        ("selection-tree", &tree_policy),
        ("exact-dp-oracle", &oracle),
    ];
    for (name, policy) in &rows {
        let report = evaluate(*policy, &platform, test, &ctx.types, 20);
        println!(
            "{:<18} {:>9.2}% {:>9.1}%",
            name,
            100.0 * report.overall_relative_cost(),
            100.0 * report.overall_coverage()
        );
    }
    println!(
        "\n(relative = estimated downtime / actual downtime on handled cases; lower is better)"
    );

    // Show the first-action choices for the most frequent (deceptive) type:
    // the learned policies should jump straight to the strong action.
    let s0 = RecoveryState::initial(ctx.types[0]);
    println!("\nfirst action for the most frequent error type:");
    for (name, policy) in &rows {
        println!("  {:<18} {:?}", name, policy.decide(&s0));
    }
}
