//! Integration tests of the observability layer: a full observed
//! experiment records training and replay metrics, observation never
//! changes trained policies, and the sweep-level hooks report what the
//! paper's training loop actually does.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use recovery_core::experiment::{ExperimentContext, TestRun, TestRunConfig};
use recovery_core::persist::policy_to_text;
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_core::selection_tree::{SelectionTreeConfig, SelectionTreeTrainer};
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_diagnostics::DiagnosticsRecorder;
use recovery_simlog::{GeneratorConfig, LogGenerator, RepairAction};
use recovery_telemetry::{Event, EventBus, JsonlSink, ObserverHandle, Telemetry, TrainingObserver};

fn small_context() -> ExperimentContext {
    let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
    ExperimentContext::prepare(generated.log.split_processes(), 0.1, 6)
}

fn small_config() -> TestRunConfig {
    let mut trainer = TrainerConfig::fast();
    trainer.learning.max_episodes = 2_000;
    TestRunConfig {
        top_k: 6,
        ..TestRunConfig::new(0.4)
    }
    .with_trainer(trainer)
}

#[test]
fn observed_test_run_records_training_and_replay_metrics() {
    let ctx = small_context();
    let telemetry = Telemetry::new();
    let (run, _) = TestRun::execute(&small_config(), &ctx, &telemetry, &ObserverHandle::none());
    assert!(run.train_count > 0 && run.test_count > 0);

    let snapshot = telemetry.snapshot().expect("telemetry is enabled");
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    // Sweep-level training activity was recorded.
    assert!(counter("train.sweeps") > 0, "no sweeps recorded");
    assert!(counter("train.episodes") > 0, "no episodes recorded");
    assert_eq!(counter("train.sweeps"), counter("train.episodes"));
    assert!(counter("train.types_started") as usize >= run.stats.len());
    // Per-error-type sweep counters match the run's own statistics.
    for s in &run.stats {
        let name = format!("train.sweeps.type{}", s.error_type.symptom().index());
        assert_eq!(
            counter(&name),
            s.sweeps,
            "per-type counter {name} disagrees with TypeTrainingStats"
        );
    }
    // Platform replay activity (cost-cache hits during training, misses
    // during average-only evaluation) was recorded.
    assert!(counter("platform.attempts") > 0);
    assert_eq!(
        counter("platform.attempts"),
        counter("platform.cured") + counter("platform.failed")
    );
    assert_eq!(
        counter("platform.attempts"),
        counter("platform.cost_cache.hit") + counter("platform.cost_cache.miss")
    );
    assert!(
        counter("platform.replays") > 0,
        "evaluation replays missing"
    );
    // Stage spans were timed.
    for span in ["span.train.ms", "span.evaluate.ms"] {
        let h = snapshot.histograms.get(span).unwrap_or_else(|| {
            panic!(
                "missing span histogram {span}; have {:?}",
                snapshot.histograms.keys().collect::<Vec<_>>()
            )
        });
        assert!(h.count > 0, "{span} never recorded");
    }
}

#[test]
fn observation_does_not_change_trained_policies() {
    let ctx = small_context();
    let (train, _) = recovery_core::evaluate::time_ordered_split(&ctx.clean, 0.4);
    let symptoms = {
        let generated = LogGenerator::new(GeneratorConfig::small()).generate();
        generated.log.symptoms().clone()
    };

    let train_policy = |observer: ObserverHandle| {
        let trainer = OfflineTrainer::new(train, TrainerConfig::fast()).with_observer(observer);
        let tree = SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default());
        let (policy, stats) = tree.train(&ctx.types);
        (policy_to_text(&policy, &symptoms), stats)
    };
    let (unobserved, stats_a) = train_policy(Telemetry::disabled().observer_handle());
    let (observed, stats_b) = train_policy(Telemetry::new().observer_handle());
    // Diagnostics ride the same seam, fanned out next to telemetry — the
    // purity contract covers the composed handle too.
    let recorder = DiagnosticsRecorder::new();
    let telemetry = Telemetry::new();
    let (diagnosed, stats_c) = train_policy(telemetry.observer_handle().fanout(&recorder.handle()));
    assert_eq!(
        unobserved, observed,
        "attaching an observer changed the trained policy bytes"
    );
    assert_eq!(
        unobserved, diagnosed,
        "attaching a diagnostics recorder changed the trained policy bytes"
    );
    assert!(
        !recorder.traces().is_empty(),
        "the recorder saw no training while the policy was produced"
    );
    assert_eq!(stats_a.len(), stats_b.len());
    assert_eq!(stats_a.len(), stats_c.len());
    for (a, b) in stats_a.iter().zip(&stats_b) {
        assert_eq!(a.sweeps, b.sweeps);
        assert_eq!(a.converged, b.converged);
    }
}

/// The bus side of the purity contract: a deliberately stalled
/// subscriber (queue capacity 1, never drained) forces the bus onto its
/// drop path during training, and the trained policy must still be
/// byte-identical to an unobserved run — at 1 worker thread and at 4.
#[test]
fn a_stalled_bus_subscriber_drops_events_without_perturbing_training() {
    let ctx = small_context();
    let (train, _) = recovery_core::evaluate::time_ordered_split(&ctx.clean, 0.4);
    let symptoms = {
        let generated = LogGenerator::new(GeneratorConfig::small()).generate();
        generated.log.symptoms().clone()
    };
    let train_with = |telemetry: &Telemetry, threads: usize| {
        let trainer = OfflineTrainer::new(train, TrainerConfig::fast())
            .with_observer(telemetry.observer_handle())
            .with_threads(threads);
        let tree = SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default());
        let (policy, _) = tree.train(&ctx.types);
        policy_to_text(&policy, &symptoms)
    };
    let baseline = train_with(&Telemetry::disabled(), 1);
    for threads in [1, 4] {
        let bus = EventBus::default();
        let stalled = bus.subscribe_with_capacity(1);
        let healthy = bus.subscribe();
        let telemetry = Telemetry::with_parts(None, Some(bus.clone()));
        let text = train_with(&telemetry, threads);
        telemetry.finish();
        assert_eq!(
            text, baseline,
            "a bus with a stalled subscriber changed the policy at {threads} threads"
        );
        assert!(bus.published() > 0, "training published no events");
        assert_eq!(
            stalled.lag(),
            1,
            "the stalled queue holds exactly its capacity"
        );
        assert!(
            stalled.dropped() > 0,
            "the stalled subscriber never overflowed ({} published)",
            bus.published()
        );
        assert_eq!(stalled.dropped(), bus.published() - 1);
        assert_eq!(bus.dropped(), stalled.dropped());
        // The healthy subscriber saw the whole stream, drops and all.
        assert_eq!(healthy.dropped(), 0);
        assert_eq!(healthy.drain().len() as u64, bus.published());
    }
}

/// A run that panics mid-flight must still leave complete JSONL lines:
/// unwinding drops the telemetry handle, and the sink flushes on drop.
#[test]
fn a_panicking_run_still_leaves_complete_jsonl_lines() {
    let path = std::env::temp_dir().join(format!(
        "autorecover-panic-flush-{}.jsonl",
        std::process::id()
    ));
    let result = catch_unwind(AssertUnwindSafe(|| {
        let telemetry = Telemetry::with_sink(JsonlSink::to_file(path.to_str().unwrap()).unwrap());
        for i in 0..100u64 {
            telemetry.emit(&Event::new("tick").with("i", i));
        }
        // No finish(), no explicit flush: the lines above are sitting in
        // the BufWriter when the panic unwinds.
        panic!("injected mid-run abort");
    }));
    assert!(result.is_err(), "the run must actually panic");
    let text = std::fs::read_to_string(&path).expect("sink file exists");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 100, "every emitted line survived the panic");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with("{\"type\":\"tick\"") && line.ends_with('}'),
            "line {i} is incomplete: {line:?}"
        );
    }
}

/// Captures every `platform_replay` hook verbatim.
#[derive(Default)]
struct ReplayCapture {
    seen: Mutex<Vec<(bool, f64, bool)>>,
}

impl TrainingObserver for ReplayCapture {
    fn platform_replay(&self, cured: bool, actual_cost: f64, from_log: bool) {
        self.seen
            .lock()
            .unwrap()
            .push((cured, actual_cost, from_log));
    }
}

#[test]
fn platform_replay_forwards_the_charged_cost() {
    let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
    let processes = generated.log.split_processes();
    assert!(!processes.is_empty());

    for estimation in [CostEstimation::PreferActual, CostEstimation::AverageOnly] {
        let capture = Arc::new(ReplayCapture::default());
        let platform = SimulationPlatform::from_processes(&processes, estimation)
            .with_observer(ObserverHandle::attached(capture.clone()));
        let mut outcomes = Vec::new();
        for truth in processes.iter().take(20) {
            for action in [
                RepairAction::TryNop,
                RepairAction::Reboot,
                RepairAction::Rma,
            ] {
                outcomes.push(platform.attempt(truth, action, 0));
            }
        }
        let seen = capture.seen.lock().unwrap();
        assert_eq!(seen.len(), outcomes.len());
        for ((cured, cost, from_log), outcome) in seen.iter().zip(&outcomes) {
            assert_eq!(*cured, outcome.cured);
            assert_eq!(
                *cost, outcome.cost,
                "hook cost must be the exact charged cost"
            );
            assert!(cost.is_finite() && *cost > 0.0);
            if estimation == CostEstimation::AverageOnly {
                assert!(!from_log, "average-only mode never reads the log cost");
            }
        }
        if estimation == CostEstimation::PreferActual {
            assert!(
                seen.iter().any(|(_, _, from_log)| *from_log),
                "prefer-actual replays of logged processes must hit the log"
            );
        }
    }
}

/// Captures every `temperature_update` and `sweep_complete` hook.
#[derive(Default)]
struct CapturingObserver {
    temperatures: Mutex<Vec<f64>>,
    sweeps: Mutex<u64>,
}

impl TrainingObserver for CapturingObserver {
    fn temperature_update(&self, _sweep: u64, temperature: f64) {
        self.temperatures.lock().unwrap().push(temperature);
    }

    fn sweep_complete(&self, _sweep: u64) {
        *self.sweeps.lock().unwrap() += 1;
    }
}

#[test]
fn temperature_anneals_monotonically_and_sweeps_match() {
    let ctx = small_context();
    let (train, _) = recovery_core::evaluate::time_ordered_split(&ctx.clean, 0.4);
    let capture = Arc::new(CapturingObserver::default());
    let trainer = OfflineTrainer::new(train, TrainerConfig::fast())
        .with_observer(ObserverHandle::attached(capture.clone()));
    let et = ctx.types[0];
    let (_, stats) = trainer.train_type(et).expect("top type has data");

    let temps = capture.temperatures.lock().unwrap();
    assert_eq!(
        temps.len() as u64,
        stats.sweeps,
        "one temperature per sweep"
    );
    assert!(
        temps.windows(2).all(|w| w[1] <= w[0]),
        "the annealed temperature must be non-increasing"
    );
    assert_eq!(*capture.sweeps.lock().unwrap(), stats.sweeps);
}

/// Satellite of the tracing layer: `flatjson` must round-trip the exact
/// event shapes the bus now emits — `trace` trees, `access` logs with
/// hostile strings, `convergence` summaries — recovering every flat
/// field and skimming (not silently stringifying) nested values.
#[test]
fn flatjson_round_trips_the_bus_event_shapes() {
    use recovery_telemetry::flatjson::{get, parse_line, Field};

    // A finished span emits `span` then `trace`; capture the real bytes
    // off a live bus rather than hand-writing the shapes.
    let bus = EventBus::default();
    let sub = bus.subscribe();
    let telemetry = Telemetry::with_parts(None, Some(bus));
    drop(telemetry.span("stage"));
    let lines = sub.drain();
    let trace_line = lines
        .iter()
        .find(|l| l.starts_with("{\"type\":\"trace\""))
        .expect("a trace event");
    let fields = parse_line(trace_line).expect("trace event parses");
    assert_eq!(get(&fields, "type").and_then(Field::as_str), Some("trace"));
    assert_eq!(get(&fields, "trace").and_then(Field::as_f64), Some(1.0));
    assert_eq!(get(&fields, "root").and_then(Field::as_str), Some("stage"));
    assert_eq!(get(&fields, "spans").and_then(Field::as_f64), Some(1.0));
    assert!(get(&fields, "ms").and_then(Field::as_f64).is_some());

    // An access log whose strings carry every escape the emitter knows:
    // quotes, backslashes, newlines, tabs, and a control byte.
    let hostile = "/trace/a\"}{\"\\x\n\tb\u{1}";
    let access = Event::new("access")
        .with("id", "req-9")
        .with("method", "GET")
        .with("path", hostile)
        .with("route", "trace")
        .with("ms", 0.25)
        .to_json();
    let fields = parse_line(&access).expect("access event parses");
    assert_eq!(get(&fields, "type").and_then(Field::as_str), Some("access"));
    assert_eq!(get(&fields, "id").and_then(Field::as_str), Some("req-9"));
    assert_eq!(
        get(&fields, "path").and_then(Field::as_str),
        Some(hostile),
        "hostile escapes must survive the emit → parse round trip"
    );
    assert_eq!(get(&fields, "ms").and_then(Field::as_f64), Some(0.25));

    // A convergence summary: numbers (including a tiny float) and a
    // boolean round-trip exactly.
    let convergence = Event::new("convergence")
        .with("window", 2u64)
        .with("error_type", "type11")
        .with("verdict", "converged")
        .with("sweeps", 512u64)
        .with("converged", true)
        .with("final_q_delta", 0.015625)
        .to_json();
    let fields = parse_line(&convergence).expect("convergence event parses");
    assert_eq!(
        get(&fields, "error_type").and_then(Field::as_str),
        Some("type11")
    );
    assert_eq!(get(&fields, "sweeps").and_then(Field::as_f64), Some(512.0));
    assert_eq!(
        get(&fields, "converged").and_then(Field::as_bool),
        Some(true)
    );
    assert_eq!(
        get(&fields, "final_q_delta").and_then(Field::as_f64),
        Some(0.015625)
    );

    // A full trace tree (`GET /trace/<id>` body) is a *nested* document:
    // the flat parser skims the subtree as an opaque Object — every
    // typed accessor refuses it — instead of misreading its bytes.
    drop(telemetry.span("outer"));
    let tree = telemetry.last_trace().expect("a finished trace");
    let fields = parse_line(&tree.to_json()).expect("tree JSON is one object");
    let root = get(&fields, "root").expect("root field");
    assert!(matches!(root, Field::Object), "{root:?}");
    assert_eq!(root.as_str(), None);
    assert_eq!(root.as_f64(), None);
    assert_eq!(root.as_bool(), None);

    // Truncated or trailing-garbage lines (a torn tail mid-write) are
    // rejected outright, not half-parsed.
    assert!(parse_line(&access[..access.len() - 2]).is_none());
    assert!(parse_line(&format!("{access}x")).is_none());
}
