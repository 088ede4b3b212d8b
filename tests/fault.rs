//! Fault-injection tests: the robustness layer exercised end to end.
//!
//! Every fault here is injected deterministically by seed through
//! `recovery_core::fault` (faultline), so the assertions can demand the
//! strongest property the workspace offers — byte-identical recovery for
//! every thread count:
//!
//! * corrupted and truncated logs are quarantined with the correct
//!   per-kind counters, and the surviving log is identical at 1/2/4
//!   threads;
//! * strict mode stays byte-identical to the pre-fault-tolerance
//!   parser, pinned against the committed golden fixture;
//! * scripted window failures degrade the continuous loop (`FellBack`
//!   rows) without aborting it, and later windows still train.
//!
//! The CI `fault-matrix` job reruns this file under `RECOVERY_THREADS=1`
//! and `=4` and byte-compares the `FAULT_DUMP` emitted by
//! [`fault_dump_is_thread_count_invariant`].

use std::fs;
use std::path::PathBuf;

use recovery_core::experiment::ExperimentContext;
use recovery_core::fault::{corrupt_lines, truncate_text, CorruptionMode, LoopFaultPlan};
use recovery_core::ingest::{self, ParseErrorPolicy, QuarantineReport};
use recovery_core::parallel::WorkerPool;
use recovery_core::persist::policy_to_text;
use recovery_core::pipeline::{
    run_continuous_loop_controlled, ContinuousLoopConfig, FallbackReason, LoopControls,
    WindowOutcome, WindowStatus,
};
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_simlog::{
    CatalogConfig, ClusterConfig, FaultCatalog, GeneratorConfig, LogGenerator, ParseLogError,
    ParseLogErrorKind, RecoveryLog, RecoveryProcess, SimDuration, SymptomCatalog,
};
use recovery_telemetry::{ObserverHandle, Telemetry};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

fn sample_text() -> String {
    LogGenerator::new(GeneratorConfig::small())
        .generate()
        .log
        .to_text()
}

/// Same rendering as tests/ingest.rs: any drift in surviving entries,
/// interning, or process extraction shows up as a byte difference.
fn render(processes: &[RecoveryProcess], symptoms: &SymptomCatalog) -> String {
    let mut out = String::new();
    for p in processes {
        out.push_str(&format!(
            "machine {} start {} success {} downtime {}\n",
            p.machine().index(),
            p.start(),
            p.success_time(),
            p.downtime()
        ));
        for &(t, s) in p.symptoms() {
            out.push_str(&format!(
                "  symptom {t} {}\n",
                symptoms.name(s).unwrap_or("?")
            ));
        }
        for a in p.actions() {
            out.push_str(&format!("  action {} {}\n", a.time, a.action));
        }
    }
    out
}

/// A policy-aware parse plus the sharded split of its surviving lines.
#[derive(Debug)]
struct Ingested {
    log: RecoveryLog,
    processes: Vec<RecoveryProcess>,
    quarantine: QuarantineReport,
}

fn ingest_with(
    text: &str,
    policy: ParseErrorPolicy,
    pool: &WorkerPool,
    telemetry: &Telemetry,
) -> Result<Ingested, ParseLogError> {
    let (mut log, quarantine) = ingest::parse_log_with_policy(text, policy, pool, telemetry)?;
    let processes = ingest::split_processes(&mut log, pool, telemetry);
    Ok(Ingested {
        log,
        processes,
        quarantine,
    })
}

/// A loop run without per-window observers, publication, or controls.
fn run_loop(
    catalog: &FaultCatalog,
    config: &ContinuousLoopConfig,
    telemetry: &Telemetry,
) -> Vec<WindowOutcome> {
    run_continuous_loop_controlled(
        catalog,
        config,
        telemetry,
        &mut |_| ObserverHandle::none(),
        &mut |_| {},
        &mut LoopControls::default(),
    )
    .expect("an in-memory loop cannot fail")
    .outcomes
}

fn small_loop_config(windows: usize, faults: LoopFaultPlan) -> ContinuousLoopConfig {
    ContinuousLoopConfig {
        windows,
        top_k: 8,
        trainer: TrainerConfig::fast(),
        faults,
        ..ContinuousLoopConfig::new(ClusterConfig {
            machines: 60,
            horizon: SimDuration::from_days(30),
            mean_fault_interarrival: SimDuration::from_days(3),
            ..ClusterConfig::default()
        })
    }
}

/// Strict mode is byte-identical to the pre-fault-tolerance parser:
/// `--on-parse-error fail` over the committed golden log renders exactly
/// the committed golden.processes bytes.
#[test]
fn strict_policy_reproduces_the_golden_fixture_bytes() {
    let text = fs::read_to_string(fixture("golden.log")).expect("committed log fixture");
    let expected = fs::read_to_string(fixture("golden.processes")).expect("committed snapshot");
    for threads in [1, 2, 4] {
        let pool = WorkerPool::new(threads);
        let outcome = ingest_with(&text, ParseErrorPolicy::Fail, &pool, &Telemetry::disabled())
            .expect("golden log parses strictly");
        assert!(outcome.quarantine.is_clean());
        assert_eq!(
            render(&outcome.processes, outcome.log.symptoms()),
            expected,
            "{threads} threads drifted from the committed strict bytes"
        );
    }
}

/// Each corruption mode lands in its own per-kind quarantine counter,
/// and the surviving log is byte-identical for every thread count.
#[test]
fn corruption_modes_quarantine_with_the_right_kind() {
    let text = sample_text();
    for mode in [
        CorruptionMode::Timestamp,
        CorruptionMode::Machine,
        CorruptionMode::Structure,
        CorruptionMode::Symptom,
    ] {
        let corrupted = corrupt_lines(&text, 0xFA017, 3, mode);
        assert_eq!(corrupted.lines.len(), 3, "{mode:?}");
        let mut baseline: Option<String> = None;
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let outcome = ingest_with(
                &corrupted.text,
                ParseErrorPolicy::Quarantine,
                &pool,
                &Telemetry::disabled(),
            )
            .expect("lenient ingestion never fails on bad lines");
            assert_eq!(
                outcome.quarantine.skipped(),
                3,
                "{mode:?}, {threads} threads"
            );
            assert_eq!(
                outcome.quarantine.count(mode.expected_kind()),
                3,
                "{mode:?}, {threads} threads"
            );
            let quarantined: Vec<usize> =
                outcome.quarantine.lines().iter().map(|l| l.line).collect();
            assert_eq!(quarantined, corrupted.lines, "{mode:?}, {threads} threads");
            let rendered = render(&outcome.processes, outcome.log.symptoms());
            match &baseline {
                None => baseline = Some(rendered),
                Some(expected) => {
                    assert_eq!(&rendered, expected, "{mode:?}, {threads} threads")
                }
            }
        }
    }
}

/// Skip and quarantine keep exactly the same surviving entries — the
/// only difference is whether offending lines are retained.
#[test]
fn skip_and_quarantine_agree_on_survivors() {
    let text = sample_text();
    let corrupted = corrupt_lines(&text, 7, 5, CorruptionMode::Machine);
    let pool = WorkerPool::new(2);
    let skip = ingest_with(
        &corrupted.text,
        ParseErrorPolicy::Skip,
        &pool,
        &Telemetry::disabled(),
    )
    .unwrap();
    let quarantine = ingest_with(
        &corrupted.text,
        ParseErrorPolicy::Quarantine,
        &pool,
        &Telemetry::disabled(),
    )
    .unwrap();
    assert_eq!(skip.log, quarantine.log);
    assert_eq!(skip.processes, quarantine.processes);
    assert_eq!(skip.quarantine.skipped(), quarantine.quarantine.skipped());
    assert!(skip.quarantine.lines().is_empty());
    assert_eq!(quarantine.quarantine.lines().len(), 5);
}

/// Skipping a bad line is the same as deleting it: the skipped line
/// interns nothing, so a symptom seen only on a corrupt line cannot shift
/// the `SymptomId`s — and with them the per-type training seeds — of the
/// symptoms that first appear after it.
#[test]
fn skipping_a_corrupt_line_equals_deleting_it() {
    let text = sample_text();
    let mut lines: Vec<&str> = text.lines().collect();
    let clean = lines.join("\n");
    // Ahead of every symptom but the first line's.
    lines.insert(1, "BADTIME\tM0001\terror:phantom-only");
    let dirty = lines.join("\n");
    let train = |log: &mut RecoveryLog| {
        let ctx = ExperimentContext::prepare(log.split_processes(), 0.1, 4);
        let mut config = TrainerConfig::fast().with_seed(0x5_EED);
        config.learning.max_episodes = 300;
        let (policy, _) = OfflineTrainer::new(&ctx.clean, config).train(&ctx.types);
        policy_to_text(&policy, log.symptoms())
    };
    for threads in [1, 4] {
        let pool = WorkerPool::new(threads);
        let (mut skipped, report) = ingest::parse_log_with_policy(
            &dirty,
            ParseErrorPolicy::Skip,
            &pool,
            &Telemetry::disabled(),
        )
        .expect("lenient parsing never fails on bad lines");
        assert_eq!(report.count(ParseLogErrorKind::Timestamp), 1);
        let mut deleted =
            ingest::parse_log(&clean, &pool, &Telemetry::disabled()).expect("clean log parses");
        assert_eq!(
            skipped, deleted,
            "{threads} threads: entries or catalog differ"
        );
        assert_eq!(
            train(&mut skipped),
            train(&mut deleted),
            "{threads} threads: policies differ"
        );
    }
}

/// A torn (truncated mid-line) log fails strict parsing but survives
/// quarantine mode, losing exactly the torn line.
#[test]
fn truncated_input_survives_quarantine_mode() {
    let text = sample_text();
    let torn = truncate_text(&text, 0x7047);
    assert_eq!(torn.lines.len(), 1);
    let pool = WorkerPool::new(2);
    let strict = ingest_with(
        &torn.text,
        ParseErrorPolicy::Fail,
        &pool,
        &Telemetry::disabled(),
    );
    let err = strict.expect_err("a torn line must fail strict parsing");
    assert_eq!(err.kind(), ParseLogErrorKind::Timestamp);
    assert_eq!(err.line(), Some(torn.lines[0]));

    let lenient = ingest_with(
        &torn.text,
        ParseErrorPolicy::Quarantine,
        &pool,
        &Telemetry::disabled(),
    )
    .expect("quarantine mode survives torn input");
    assert_eq!(lenient.quarantine.skipped(), 1);
    assert_eq!(
        lenient.quarantine.count(ParseLogErrorKind::Timestamp),
        1,
        "the torn tail is a broken timestamp"
    );
    assert_eq!(lenient.quarantine.lines()[0].line, torn.lines[0]);
}

/// A retraining panic degrades its window to `FellBack` while the loop
/// keeps running — and the *next* retraining succeeds, so later windows
/// train again.
#[test]
fn retrain_panic_degrades_one_window_and_the_loop_recovers() {
    let catalog = CatalogConfig::default().with_fault_types(8).generate(5);
    let config = small_loop_config(4, LoopFaultPlan::none().with_retrain_panic(1));
    let outcomes = run_loop(&catalog, &config, &Telemetry::disabled());
    assert_eq!(outcomes.len(), 4, "the loop must not abort");
    assert_eq!(outcomes[0].status, WindowStatus::Trained);
    assert_eq!(
        outcomes[1].status,
        WindowStatus::FellBack {
            reason: FallbackReason::TrainingPanicked
        }
    );
    // Window 2 runs under the last good policy (from window 0's
    // retraining) and its own retraining succeeds again.
    assert!(outcomes[2].learned_policy);
    assert_eq!(outcomes[2].status, WindowStatus::Trained);
    assert!(outcomes[3].learned_policy);
    assert!(outcomes[3].policy_entries > 0);
}

/// A simulation panic yields an empty, `FellBack` window; the loop
/// continues and keeps driving the last good policy.
#[test]
fn simulation_panic_degrades_one_window_without_aborting() {
    let catalog = CatalogConfig::default().with_fault_types(8).generate(5);
    let config = small_loop_config(3, LoopFaultPlan::none().with_simulation_panic(1));
    let outcomes = run_loop(&catalog, &config, &Telemetry::disabled());
    assert_eq!(outcomes.len(), 3);
    assert_eq!(
        outcomes[1].status,
        WindowStatus::FellBack {
            reason: FallbackReason::SimulationPanicked
        }
    );
    assert_eq!(outcomes[1].processes, 0);
    assert!(
        outcomes[1].learned_policy,
        "the window-0 policy stays deployed"
    );
    assert_eq!(outcomes[2].status, WindowStatus::Trained);
    assert!(outcomes[2].learned_policy);
}

/// Degraded loops are as deterministic as healthy ones: the same faulted
/// configuration yields identical outcome rows for every thread count.
#[test]
fn faulted_loop_outcomes_are_thread_count_invariant() {
    let catalog = CatalogConfig::default().with_fault_types(8).generate(5);
    let faults = LoopFaultPlan::none()
        .with_empty_window(0)
        .with_retrain_panic(1);
    let mut baseline = None;
    for threads in [1, 2, 4] {
        let config = ContinuousLoopConfig {
            threads,
            ..small_loop_config(3, faults.clone())
        };
        let outcomes = run_loop(&catalog, &config, &Telemetry::disabled());
        match &baseline {
            None => baseline = Some(outcomes),
            Some(expected) => assert_eq!(&outcomes, expected, "{threads} threads"),
        }
    }
}

/// Quarantine and fallback events land in the telemetry metrics and the
/// JSONL stream; the event lines are identical across thread counts.
#[test]
fn degraded_operation_is_observable_and_deterministic() {
    let text = sample_text();
    let corrupted = corrupt_lines(&text, 3, 2, CorruptionMode::Symptom);
    let catalog = CatalogConfig::default().with_fault_types(8).generate(5);
    type EventsAndCounters = (Vec<String>, Vec<(String, u64)>);
    let mut baseline: Option<EventsAndCounters> = None;
    for threads in [1, 4] {
        let dump = std::env::temp_dir().join(format!(
            "autorecover-fault-events-{}-{threads}.jsonl",
            std::process::id()
        ));
        let sink = recovery_telemetry::JsonlSink::to_file(&dump).unwrap();
        let telemetry = Telemetry::with_sink(sink);
        let pool = WorkerPool::new(threads);
        let outcome = ingest_with(
            &corrupted.text,
            ParseErrorPolicy::Quarantine,
            &pool,
            &telemetry,
        )
        .unwrap();
        assert_eq!(outcome.quarantine.skipped(), 2);
        let config = ContinuousLoopConfig {
            threads,
            ..small_loop_config(2, LoopFaultPlan::none().with_empty_window(0))
        };
        let _ = run_loop(&catalog, &config, &telemetry);

        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counters["ingest.lines_skipped"], 2);
        assert_eq!(snap.counters["ingest.parse_error.symptom"], 2);
        assert_eq!(snap.counters["ingest.quarantined"], 2);
        assert!(snap.counters["loop.fallbacks"] >= 1);
        assert!(snap.counters.contains_key("loop.fallback.empty_window"));
        let deterministic_counters: Vec<(String, u64)> = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("ingest.") || k.starts_with("loop."))
            .map(|(k, v)| (k.clone(), *v))
            .collect();

        telemetry.finish();
        let jsonl = fs::read_to_string(&dump).unwrap();
        fs::remove_file(&dump).ok();
        // Span events carry wall-clock durations; the fault events are
        // pure data and must be byte-stable across thread counts.
        let fault_events: Vec<String> = jsonl
            .lines()
            .filter(|l| {
                l.starts_with("{\"type\":\"quarantine\"")
                    || l.starts_with("{\"type\":\"quarantine_summary\"")
                    || l.starts_with("{\"type\":\"window\"")
            })
            .map(str::to_owned)
            .collect();
        assert!(
            fault_events.iter().any(|l| l.contains("\"quarantine\"")),
            "missing quarantine events: {fault_events:?}"
        );
        assert!(
            fault_events.iter().any(|l| l.contains("\"empty_window\"")),
            "missing fallback window event: {fault_events:?}"
        );
        match &baseline {
            None => baseline = Some((fault_events, deterministic_counters)),
            Some((expected_events, expected_counters)) => {
                assert_eq!(&fault_events, expected_events, "{threads} threads");
                assert_eq!(
                    &deterministic_counters, expected_counters,
                    "{threads} threads"
                );
            }
        }
    }
}

/// The CI fault-matrix hook: runs a fixed fault scenario at
/// `RECOVERY_THREADS` workers and, when `FAULT_DUMP` is set, writes the
/// quarantine counters and window outcomes as stable text. CI runs this
/// at 1 and 4 threads and byte-compares the dumps.
#[test]
fn fault_dump_is_thread_count_invariant() {
    let threads: usize = std::env::var("RECOVERY_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let pool = WorkerPool::new(threads);
    let mut dump = String::new();

    // Scenario 1: every corruption mode through quarantine ingestion.
    let text = sample_text();
    for mode in [
        CorruptionMode::Timestamp,
        CorruptionMode::Machine,
        CorruptionMode::Structure,
        CorruptionMode::Symptom,
    ] {
        let corrupted = corrupt_lines(&text, 0xC1, 4, mode);
        let outcome = ingest_with(
            &corrupted.text,
            ParseErrorPolicy::Quarantine,
            &pool,
            &Telemetry::disabled(),
        )
        .unwrap();
        dump.push_str(&format!(
            "corrupt {:?} skipped {} kind_count {} survivors {} lines {:?}\n",
            mode,
            outcome.quarantine.skipped(),
            outcome.quarantine.count(mode.expected_kind()),
            outcome.processes.len(),
            corrupted.lines
        ));
    }

    // Scenario 2: torn input.
    let torn = truncate_text(&text, 0xC2);
    let outcome = ingest_with(
        &torn.text,
        ParseErrorPolicy::Quarantine,
        &pool,
        &Telemetry::disabled(),
    )
    .unwrap();
    dump.push_str(&format!(
        "truncate skipped {} timestamp_count {} survivors {}\n",
        outcome.quarantine.skipped(),
        outcome.quarantine.count(ParseLogErrorKind::Timestamp),
        outcome.processes.len()
    ));

    // Scenario 3: a degraded loop.
    let catalog = CatalogConfig::default().with_fault_types(8).generate(5);
    let config = ContinuousLoopConfig {
        threads,
        ..small_loop_config(3, LoopFaultPlan::none().with_retrain_panic(0))
    };
    for w in run_loop(&catalog, &config, &Telemetry::disabled()) {
        dump.push_str(&format!(
            "window {} processes {} mttr {} learned {} status {}\n",
            w.window,
            w.processes,
            w.mttr.as_secs(),
            w.learned_policy,
            w.status.label()
        ));
    }

    // Minimal self-checks so the test asserts even without a dump file.
    assert!(dump.contains("corrupt Timestamp skipped 4 kind_count 4"));
    assert!(dump.contains("status training_panicked"));
    if let Some(path) = std::env::var_os("FAULT_DUMP") {
        fs::write(&path, &dump).expect("write fault dump");
        eprintln!("wrote fault dump ({threads} threads) to {path:?}");
    }
}
