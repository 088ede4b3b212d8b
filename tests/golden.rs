//! Golden regression tests: a committed log fixture is trained with
//! pinned configurations and the serialized artifacts must match the
//! committed snapshots byte for byte.
//!
//! This locks down the *entire* deterministic pipeline — log parsing,
//! noise filtering, type ranking, per-type seed derivation, Q-learning
//! (plain, double-Q, and selection-tree), parallel fan-out/merge, policy
//! serialization, and the run report's convergence traces. Any
//! intentional change to one of those stages must regenerate the
//! snapshots:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p recovery-core --test golden
//! ```

use std::fs;
use std::path::PathBuf;

use recovery_core::experiment::{ExperimentContext, TestRun, TestRunConfig};
use recovery_core::parallel::WorkerPool;
use recovery_core::persist::policy_to_text;
use recovery_core::policy::TrainedPolicy;
use recovery_core::selection_tree::{SelectionTreeConfig, SelectionTreeTrainer};
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_diagnostics::{assemble, DiagnosticsRecorder, RunReportInputs};
use recovery_simlog::{RecoveryLog, SymptomCatalog};
use recovery_telemetry::Telemetry;

fn fixture(name: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core; fixtures live at the workspace
    // root next to the integration tests.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// The fixture log, noise-filtered, with its top four error types.
fn golden_context() -> (ExperimentContext, SymptomCatalog) {
    let text = fs::read_to_string(fixture("golden.log")).expect("committed log fixture");
    let mut log = RecoveryLog::from_text(&text).expect("fixture log parses");
    let symptoms = log.symptoms().clone();
    let ctx = ExperimentContext::prepare(log.split_processes(), 0.1, 4);
    (ctx, symptoms)
}

/// Runs `train` against the pinned training recipe. Changing anything
/// here (or in the stages it exercises) is a deliberate behavioural
/// change — regenerate the snapshots and review the diff.
fn train_golden(
    train: impl FnOnce(&OfflineTrainer<'_>, &ExperimentContext) -> TrainedPolicy,
) -> String {
    let (ctx, symptoms) = golden_context();
    let (train_set, _) = recovery_core::evaluate::time_ordered_split(&ctx.clean, 0.4);
    let mut config = TrainerConfig::fast().with_seed(0x601D_5EED);
    config.learning.max_episodes = 1_500;
    // Two threads on purpose: the snapshot certifies the parallel path
    // produces the sequential bytes (tests/parallel.rs asserts the
    // matrix; this pins the actual values).
    let trainer = OfflineTrainer::new(train_set, config).with_threads(2);
    let policy = train(&trainer, &ctx);
    assert!(!policy.q().is_empty(), "fixture log trained no types");
    policy_to_text(&policy, &symptoms)
}

/// Compares `actual` with the committed snapshot `name`, or rewrites the
/// snapshot when `REGEN_GOLDEN` is set.
fn assert_matches_snapshot(name: &str, actual: &str) {
    let snapshot_path = fixture(name);

    if std::env::var_os("REGEN_GOLDEN").is_some() {
        fs::write(&snapshot_path, actual).expect("write regenerated snapshot");
        eprintln!("regenerated {}", snapshot_path.display());
        return;
    }

    let expected = fs::read_to_string(&snapshot_path).unwrap_or_else(|e| {
        panic!(
            "cannot read committed snapshot {}: {e}\n\
             regenerate it with: REGEN_GOLDEN=1 cargo test -p recovery-core --test golden",
            snapshot_path.display()
        )
    });
    if actual != expected {
        let first_diff = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or("line counts differ".to_owned(), |i| {
                format!(
                    "first differing line {}:\n  expected: {}\n  actual:   {}",
                    i + 1,
                    expected.lines().nth(i).unwrap_or(""),
                    actual.lines().nth(i).unwrap_or("")
                )
            });
        panic!(
            "GOLDEN DRIFT — the output no longer matches tests/fixtures/{name} \
             ({} expected lines, {} actual).\n{first_diff}\n\
             If this change is intentional, regenerate the snapshot and commit it:\n\
             \n    REGEN_GOLDEN=1 cargo test -p recovery-core --test golden\n",
            expected.lines().count(),
            actual.lines().count(),
        );
    }
}

#[test]
fn trained_policy_matches_committed_snapshot() {
    let actual = train_golden(|trainer, ctx| trainer.train(&ctx.types).0);
    assert_matches_snapshot("golden.policy", &actual);
}

#[test]
fn tree_policy_matches_committed_snapshot() {
    let actual = train_golden(|trainer, ctx| {
        SelectionTreeTrainer::new(trainer, SelectionTreeConfig::default())
            .train(&ctx.types)
            .0
    });
    assert_matches_snapshot("golden-tree.policy", &actual);
}

#[test]
fn double_q_policy_matches_committed_snapshot() {
    let actual = train_golden(|trainer, ctx| {
        let mut policy = TrainedPolicy::default();
        for &et in &ctx.types {
            if let Some((q, _)) = trainer.train_type_double(et) {
                policy.q_mut().merge_from(q);
            }
        }
        policy
    });
    assert_matches_snapshot("golden-double.policy", &actual);
}

/// The fraction-0.4 diagnostics report of
/// `autorecover report tests/fixtures/golden.log --fast true --top 4
/// --threads 2 --diagnostics-out DIR`, rebuilt in process: it pins the
/// per-type convergence traces (sweeps, Q-delta tails, episode tallies)
/// next to the evaluation tables.
#[test]
fn run_report_matches_committed_snapshot() {
    let text = fs::read_to_string(fixture("golden.log")).expect("committed log fixture");
    let mut log = RecoveryLog::from_text(&text).expect("fixture log parses");
    let telemetry = Telemetry::disabled();
    let ctx =
        ExperimentContext::prepare_from_log(&mut log, 0.1, 4, &WorkerPool::new(2), &telemetry);
    let config = TestRunConfig {
        top_k: 4,
        threads: 2,
        ..TestRunConfig::new(0.4)
    }
    .with_trainer(TrainerConfig::fast());
    let recorder = DiagnosticsRecorder::new();
    let (run, policy) = TestRun::execute(&config, &ctx, &telemetry, &recorder.handle());
    let report = assemble(&RunReportInputs {
        config: &config.trainer,
        train_fraction: config.train_fraction,
        stats: &run.stats,
        policy: &policy,
        symptoms: log.symptoms(),
        recorder: &recorder,
        trained: &run.trained_report,
        hybrid: &run.hybrid_report,
        user: &run.user_report,
        counters: None,
    });
    assert_matches_snapshot("run-report-f40.json", &report.to_json());
}
