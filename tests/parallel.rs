//! Determinism of the parallel per-type pipeline: the same catalog
//! trained with 1, 2, and 8 worker threads must produce byte-identical
//! serialized policies, identical `TypeTrainingStats` (content *and*
//! order), bit-identical evaluation reports, and telemetry counters that
//! aggregate from worker threads to the sequential run's totals. The
//! dense production trainer must also match the generic hash-table
//! Q-learner, driven directly, byte for byte at any thread count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use recovery_core::evaluate::time_ordered_split;
use recovery_core::experiment::{sweep_comparison, ExperimentContext, TestRun, TestRunConfig};
use recovery_core::persist::policy_to_text;
use recovery_core::policy::TrainedPolicy;
use recovery_core::selection_tree::SelectionTreeConfig;
use recovery_core::trainer::{type_seed, OfflineTrainer, TrainerConfig};
use recovery_mdp::{QLearning, QTable};
use recovery_simlog::{GeneratorConfig, LogGenerator, SymptomCatalog};
use recovery_telemetry::{ObserverHandle, Telemetry};

fn small_context() -> (ExperimentContext, SymptomCatalog) {
    let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
    let symptoms = generated.log.symptoms().clone();
    let ctx = ExperimentContext::prepare(generated.log.split_processes(), 0.1, 6);
    (ctx, symptoms)
}

fn quick_trainer() -> TrainerConfig {
    let mut config = TrainerConfig::fast();
    config.learning.max_episodes = 2_000;
    config
}

fn quick_run(fraction: f64) -> TestRunConfig {
    TestRunConfig {
        top_k: 6,
        ..TestRunConfig::new(fraction)
    }
    .with_trainer(quick_trainer())
}

#[test]
fn training_is_byte_identical_across_thread_counts() {
    let (ctx, symptoms) = small_context();
    let (train, _) = time_ordered_split(&ctx.clean, 0.4);

    let outputs: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let trainer = OfflineTrainer::new(train, quick_trainer()).with_threads(threads);
            let (policy, stats) = trainer.train(&ctx.types);
            (threads, policy_to_text(&policy, &symptoms), stats)
        })
        .collect();

    let (_, reference_text, reference_stats) = &outputs[0];
    assert!(
        reference_stats.len() > 1,
        "need several types for the matrix to mean anything"
    );
    for (threads, text, stats) in &outputs[1..] {
        assert!(
            text == reference_text,
            "policy trained with {threads} threads differs from the sequential bytes"
        );
        assert_eq!(
            stats.len(),
            reference_stats.len(),
            "{threads} threads trained a different number of types"
        );
        for (s, r) in stats.iter().zip(reference_stats) {
            assert_eq!(s.error_type, r.error_type, "stats order drifted");
            assert_eq!(s.sweeps, r.sweeps);
            assert_eq!(s.converged, r.converged);
            assert_eq!(s.sample_count, r.sample_count);
        }
    }
}

#[test]
fn dense_and_hash_backends_are_byte_identical_across_thread_counts() {
    let (ctx, symptoms) = small_context();
    let (train, _) = time_ordered_split(&ctx.clean, 0.4);

    // The hash-table reference: the generic learner driven directly over
    // each type's `ReplayEnv`, with the production per-type seeds, and
    // the fragments merged in `types` order.
    let trainer = OfflineTrainer::new(train, quick_trainer());
    let mut learning = trainer.config().learning.clone();
    learning.max_steps = trainer.config().max_attempts;
    let mut reference = TrainedPolicy::default();
    let mut reference_stats = Vec::new();
    for &et in &ctx.types {
        let Some(mut env) = trainer.replay_env(et) else {
            continue;
        };
        let seed = type_seed(trainer.config().seed, et.symptom().index(), 0x000_AC710);
        let result = QLearning::new(learning.clone()).train_from(
            &mut env,
            &mut StdRng::seed_from_u64(seed),
            QTable::new(),
        );
        reference.q_mut().merge_from(result.q);
        reference_stats.push((et, result.episodes, result.converged));
    }
    let reference_text = policy_to_text(&reference, &symptoms);
    assert!(reference_stats.len() > 1, "need several types");

    for threads in [1usize, 4] {
        let trainer = OfflineTrainer::new(train, quick_trainer()).with_threads(threads);
        let (policy, stats) = trainer.train(&ctx.types);
        assert!(
            policy_to_text(&policy, &symptoms) == reference_text,
            "dense training with {threads} threads drifted from the hash reference bytes"
        );
        assert_eq!(stats.len(), reference_stats.len(), "{threads}: type count");
        for (s, &(et, sweeps, converged)) in stats.iter().zip(&reference_stats) {
            assert_eq!(s.error_type, et, "{threads}: stats order");
            assert_eq!(s.sweeps, sweeps, "{threads}: sweeps");
            assert_eq!(s.converged, converged, "{threads}: convergence");
        }
    }
}

#[test]
fn train_all_matches_across_thread_counts() {
    let (ctx, symptoms) = small_context();
    let (train, _) = time_ordered_split(&ctx.clean, 0.4);
    let run = |threads| {
        let trainer = OfflineTrainer::new(train, quick_trainer()).with_threads(threads);
        let (policy, stats) = trainer.train_all();
        (policy_to_text(&policy, &symptoms), stats.len())
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn test_run_reports_are_bit_identical_across_thread_counts() {
    let (ctx, _) = small_context();
    let run = |threads| {
        let config = quick_run(0.4).with_threads(threads);
        TestRun::execute(
            &config,
            &ctx,
            &Telemetry::disabled(),
            &ObserverHandle::none(),
        )
        .0
    };
    let sequential = run(1);
    let parallel = run(8);

    // EvaluationReport is PartialEq over raw f64 sums: this asserts the
    // parallel replay's floating-point accumulation is *bit*-identical,
    // not merely close.
    assert_eq!(sequential.trained_report, parallel.trained_report);
    assert_eq!(sequential.hybrid_report, parallel.hybrid_report);
    assert_eq!(sequential.user_report, parallel.user_report);
    assert_eq!(sequential.stats, parallel.stats);
}

#[test]
fn sweep_comparison_is_identical_across_thread_counts() {
    let (ctx, _) = small_context();
    let tree_config = SelectionTreeConfig {
        chunk_sweeps: 200,
        max_sweeps: 2_000,
        ..SelectionTreeConfig::default()
    };
    let run = |threads| {
        let config = quick_run(0.4).with_threads(threads);
        sweep_comparison(&config, &tree_config, &ctx, &Telemetry::disabled())
    };
    let sequential = run(1);
    let parallel = run(8);
    assert_eq!(sequential.rows, parallel.rows);
    assert_eq!(sequential.tree_report, parallel.tree_report);
    assert_eq!(sequential.standard_report, parallel.standard_report);
}

#[test]
fn worker_telemetry_aggregates_to_sequential_totals() {
    let (ctx, _) = small_context();
    let (train, _) = time_ordered_split(&ctx.clean, 0.4);

    let counters_with_threads = |threads: usize| {
        let telemetry = Telemetry::new();
        let trainer = OfflineTrainer::new(train, quick_trainer())
            .with_observer(telemetry.observer_handle())
            .with_threads(threads);
        let (_, stats) = trainer.train(&ctx.types);
        (telemetry.snapshot().expect("telemetry enabled"), stats)
    };
    let (sequential, stats) = counters_with_threads(1);
    let (parallel, _) = counters_with_threads(4);

    // Every counter the observer records — global sweep/episode totals,
    // per-type sweep counters, platform attempt/cache families — must
    // aggregate to the same totals no matter how many workers fed it.
    for (name, &value) in &sequential.counters {
        assert_eq!(
            parallel.counters.get(name).copied(),
            Some(value),
            "counter {name} diverged between 1 and 4 threads"
        );
    }
    assert_eq!(
        sequential.counters.len(),
        parallel.counters.len(),
        "parallel run recorded extra counters"
    );
    // And the counters agree with the ground truth the trainer returned.
    let total_sweeps: u64 = stats.iter().map(|s| s.sweeps).sum();
    assert_eq!(
        parallel.counters.get("train.sweeps").copied(),
        Some(total_sweeps)
    );
}
