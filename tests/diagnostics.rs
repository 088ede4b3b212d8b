//! Integration tests of the diagnostics subsystem: run reports are
//! byte-identical across thread counts for a fixed seed (the diagnostics
//! counterpart of the golden-policy snapshot), and the explainer agrees
//! with itself across a persist/reload round trip.

use std::fs;
use std::path::PathBuf;

use recovery_core::experiment::{ExperimentContext, TestRun, TestRunConfig};
use recovery_core::persist::{policy_from_text, policy_to_text};
use recovery_core::trainer::TrainerConfig;
use recovery_diagnostics::{
    assemble, diff_policies, explain_policy, DiagnosticsRecorder, ExplainOptions, RunReport,
    RunReportInputs, RUN_REPORT_SCHEMA,
};
use recovery_simlog::{RecoveryLog, SymptomCatalog};
use recovery_telemetry::Telemetry;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

fn fixture_context() -> (ExperimentContext, SymptomCatalog) {
    let text = fs::read_to_string(fixture("golden.log")).expect("committed log fixture");
    let mut log = RecoveryLog::from_text(&text).expect("fixture log parses");
    let symptoms = log.symptoms().clone();
    let ctx = ExperimentContext::prepare(log.split_processes(), 0.1, 4);
    (ctx, symptoms)
}

/// The golden training recipe (same as `tests/golden.rs`) driven through
/// the instrumented experiment runner at the given thread count.
fn instrumented_run(threads: usize) -> (RunReport, String) {
    let (ctx, symptoms) = fixture_context();
    let mut trainer = TrainerConfig::fast().with_seed(0x601D_5EED);
    trainer.learning.max_episodes = 1_500;
    let config = TestRunConfig {
        top_k: 4,
        threads,
        ..TestRunConfig::new(0.4)
    }
    .with_trainer(trainer);
    let recorder = DiagnosticsRecorder::new();
    let (run, policy) = TestRun::execute(&config, &ctx, &Telemetry::disabled(), &recorder.handle());
    let report = assemble(&RunReportInputs {
        config: &config.trainer,
        train_fraction: config.train_fraction,
        stats: &run.stats,
        policy: &policy,
        symptoms: &symptoms,
        recorder: &recorder,
        trained: &run.trained_report,
        hybrid: &run.hybrid_report,
        user: &run.user_report,
        counters: None,
    });
    (report, policy_to_text(&policy, &symptoms))
}

#[test]
fn run_reports_are_byte_identical_across_thread_counts() {
    let (sequential, policy_seq) = instrumented_run(1);
    let (parallel, policy_par) = instrumented_run(4);
    assert_eq!(
        policy_seq, policy_par,
        "thread count changed the trained policy (pre-existing invariant)"
    );
    assert_eq!(
        sequential.to_json(),
        parallel.to_json(),
        "diagnostics JSON differs between 1 and 4 threads"
    );
    assert_eq!(sequential.to_markdown(), parallel.to_markdown());
}

#[test]
fn run_report_carries_traces_for_every_trained_type() {
    let (report, _) = instrumented_run(2);
    assert!(!report.types.is_empty());
    for t in &report.types {
        let trace = t
            .trace
            .as_ref()
            .unwrap_or_else(|| panic!("type {} has no convergence trace", t.label));
        assert!(trace.sweeps > 0, "{}: no sweeps traced", t.label);
        assert!(
            !trace.q_delta_curve.is_empty(),
            "{}: empty Q-delta curve",
            t.label
        );
        assert!(trace.episode_costs.episodes > 0);
        assert!(t.entries >= t.states, "more states than entries");
    }
    // Evaluation replays landed in the recorder's global totals.
    assert!(report.replay.replays > 0, "no evaluation replays recorded");
    assert!(report.replay.attempts >= report.replay.cured);
    let json = report.to_json();
    assert!(json.starts_with(&format!("{{\"schema\":\"{RUN_REPORT_SCHEMA}\"")));
}

#[test]
fn explanation_survives_a_persist_reload_round_trip() {
    let (report, policy_text) = instrumented_run(2);
    let fresh = &report.explanation;
    assert!(fresh.visits_available, "fresh policy has visit counts");
    assert!(!fresh.states.is_empty());

    let mut symptoms = SymptomCatalog::default();
    let reloaded = policy_from_text(&policy_text, &mut symptoms).expect("policy text parses");
    let loaded = explain_policy(&reloaded, &symptoms, ExplainOptions::default());
    assert!(
        loaded.visits_available,
        "v2 policy text round-trips visit counts"
    );
    // The reloaded catalog interns symptom names in file order, so state
    // *ordering* may differ; decisions must match state by state.
    assert_eq!(fresh.states.len(), loaded.states.len());
    let decisions = |e: &recovery_diagnostics::PolicyExplanation| {
        e.states
            .iter()
            .map(|s| (s.state_key.clone(), s.decision().map(|d| d.action)))
            .collect::<std::collections::BTreeMap<_, _>>()
    };
    assert_eq!(
        decisions(fresh),
        decisions(&loaded),
        "reloaded policy decides differently"
    );
    // And the structured diff agrees: nothing added, removed, or flipped.
    let reparsed_fresh =
        policy_from_text(&policy_text, &mut symptoms).expect("policy text parses twice");
    let diff = diff_policies(&reparsed_fresh, &reloaded, &symptoms);
    assert!(diff.is_empty(), "round trip produced a diff: {diff:?}");
    assert_eq!(diff.unchanged, loaded.states.len());
}
