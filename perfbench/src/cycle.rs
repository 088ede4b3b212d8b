//! `loop-w8`: the paper's Figure-1 cycle, eight windows of the cluster
//! that `loop --scale 0.1` simulates, on one worker thread, each window
//! journaled and checkpointed into a fresh state directory and each
//! retrained policy published as a serving snapshot with a replay plane.
//!
//! The end-to-end unit is one window: its latency runs from the end of
//! the previous window's publication to the end of its own, so a loop's
//! windows add up to the loop's wall time (less the last checkpoint).

use std::fs;
use std::path::Path;
use std::time::Instant;

use recovery_core::durable::{fsck, DurableLoop};
use recovery_core::ingest::split_processes;
use recovery_core::persist::policy_to_text;
use recovery_core::pipeline::{
    run_continuous_loop_controlled, ContinuousLoopConfig, LoopControls, WindowOutcome,
    WindowPublication, WindowStatus,
};
use recovery_core::policy::LivePolicy;
use recovery_core::selection_tree::SelectionTreeTrainer;
use recovery_core::{
    ErrorTypeRanking, HybridPolicy, NoiseFilter, OfflineTrainer, TrainedPolicy, UserStatePolicy,
    WorkerPool,
};
use recovery_serve::{publish_snapshot, PolicySnapshot, PolicyStore};
use recovery_simlog::{
    stats, ClusterSim, FaultCatalog, GeneratorConfig, RecoveryProcess, UserDefinedPolicy,
};
use recovery_telemetry::{ObserverHandle, Telemetry};

use crate::sample::Usage;
use crate::spans::{Open, Recorder};
use crate::{med, overhead_pct, repeat_for, timed, Report, Run, Units, SETUPS};

const SCALE: f64 = 0.1;
const WINDOWS: usize = 8;
/// One worker leaves the other core to a serving daemon, as in `serve`
/// loop mode.
const THREADS: usize = 1;
/// Deriving the loop's inputs takes well under a millisecond, so the
/// set-up is repeated more often than elsewhere to steady its median.
const LOOP_SETUPS: usize = 11 * SETUPS;

/// The loop's inputs, exactly as `autorecover loop` derives them.
fn inputs(seed: u64) -> (FaultCatalog, ContinuousLoopConfig) {
    let generator = GeneratorConfig::paper_scale(SCALE).with_seed(seed);
    let catalog_seed = generator.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0CA7_A106;
    let catalog = generator.catalog.generate(catalog_seed);
    let config = ContinuousLoopConfig {
        windows: WINDOWS,
        seed,
        threads: THREADS,
        ..ContinuousLoopConfig::new(generator.cluster)
    };
    (catalog, config)
}

/// What one loop produced.
struct LoopResult {
    policy_text: String,
    mttr_ratio: f64,
}

pub fn run(run: &Run, rec: &Recorder, report: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut loaded = None;
    for _ in 0..LOOP_SETUPS {
        let (s, inputs) = timed(|| inputs(run.seed));
        setup_s.push(s);
        loaded = Some(inputs);
    }
    let (catalog, config) = loaded.expect("at least one set-up");

    let budget = if run.trace {
        run.seconds / 2
    } else {
        run.seconds
    };
    let mut units = Units::default();
    let mut loop_ms = Vec::new();
    let mut reference: Option<LoopResult> = None;
    repeat_for(budget, |i| {
        let dir = run.work.join(format!("loop-{i}"));
        let before = Usage::now();
        let started = Instant::now();
        let result = untraced_loop(&catalog, &config, &dir, &mut units.op_ms);
        loop_ms.push(started.elapsed().as_secs_f64() * 1e3);
        units.busy_s += started.elapsed().as_secs_f64();
        units.cpu_ms += Usage::now().since(&before).cpu_ms();
        let checked = result.and_then(|r| check_dir(&dir).map(|()| r));
        let _ = fs::remove_dir_all(&dir);
        match checked {
            Ok(result) => {
                let same = reference
                    .as_ref()
                    .is_none_or(|first| first.policy_text == result.policy_text);
                report.check(same, || {
                    format!("loop {i}: final policy differs from loop 0")
                });
                reference.get_or_insert(result);
            }
            Err(e) => report.check(false, || format!("loop {i}: {e}")),
        }
    });
    let reference = reference.ok_or("no loop completed")?;

    if run.trace {
        return traced(run, rec, report, &catalog, &config, &reference, &loop_ms);
    }
    // Every window is one op of the e2e figures.
    eprintln!(
        "loop-w8 seed {}: {} loops, final MTTR / window 0 MTTR = {}",
        run.seed,
        loop_ms.len(),
        reference.mttr_ratio
    );
    report.end_to_end(setup_s, units, reference.mttr_ratio);
    Ok(())
}

/// One loop through the public loop entry point, with the serving plane's
/// publication hook. Appends each window's latency to `window_ms`.
fn untraced_loop(
    catalog: &FaultCatalog,
    config: &ContinuousLoopConfig,
    dir: &Path,
    window_ms: &mut Vec<f64>,
) -> Result<LoopResult, String> {
    let telemetry = Telemetry::disabled();
    let mut durable = DurableLoop::open(dir)?;
    let store = PolicyStore::new();
    let mut mark = Instant::now();
    let mut publish = |publication: WindowPublication<'_>| {
        if let Some(policy) = publication.policy {
            publish_snapshot(
                &store,
                &telemetry,
                PolicySnapshot::build(
                    policy,
                    catalog.symptoms(),
                    &format!("window:{}", publication.window),
                    Some(publication.accumulated),
                ),
            );
        }
        window_ms.push(mark.elapsed().as_secs_f64() * 1e3);
        mark = Instant::now();
    };
    let run = run_continuous_loop_controlled(
        catalog,
        config,
        &telemetry,
        &mut |_| ObserverHandle::none(),
        &mut publish,
        &mut LoopControls {
            stop: None,
            durable: Some(&mut durable),
        },
    )?;
    if run.outcomes.len() != WINDOWS || run.outcomes.iter().any(|w| !w.status.is_trained()) {
        return Err(format!("windows did not all train: {:?}", run.outcomes));
    }
    if store.version() != (WINDOWS - 1) as u64 {
        return Err(format!("{} snapshots published", store.version()));
    }
    let policy = run.policy.as_ref().ok_or("no policy was trained")?;
    Ok(LoopResult {
        policy_text: policy_to_text(policy, catalog.symptoms()),
        mttr_ratio: mttr_ratio(&run.outcomes),
    })
}

/// The final window's MTTR over window 0's, which ran the user policy.
fn mttr_ratio(outcomes: &[WindowOutcome]) -> f64 {
    let first = outcomes[0].mttr.as_secs_f64();
    let last = outcomes[outcomes.len() - 1].mttr.as_secs_f64();
    last / first
}

fn check_dir(dir: &Path) -> Result<(), String> {
    let report = fsck(dir)?;
    if report.ok() {
        Ok(())
    } else {
        Err(format!("fsck failed: {report:?}"))
    }
}

/// The traced pass: the loop's layers called directly, in the loop's
/// order, each in its own span. Its final policy must equal the untraced
/// loop's byte for byte, which shows the composition is the same program.
fn traced(
    run: &Run,
    rec: &Recorder,
    report: &mut Report,
    catalog: &FaultCatalog,
    config: &ContinuousLoopConfig,
    reference: &LoopResult,
    untraced_ms: &[f64],
) -> Result<(), String> {
    let registry = Telemetry::new();
    let mut op_ms = Vec::new();
    let mut state_bytes = Vec::new();
    let mut kept_ratio = Vec::new();
    let mut sweeps = Vec::new();
    let mut failure = None;
    repeat_for(run.seconds - run.seconds / 2, |i| {
        let dir = run.work.join(format!("traced-{i}"));
        let root = rec.root("op", i);
        let result = traced_loop(rec, root, catalog, config, &dir, &registry);
        op_ms.push(rec.end(root));
        let checked = result.and_then(|r| check_dir(&dir).map(|()| r));
        state_bytes.push(dir_bytes(&dir) as f64);
        let _ = fs::remove_dir_all(&dir);
        match checked {
            Ok((text, kept, op_sweeps)) if text == reference.policy_text => {
                kept_ratio.push(kept);
                sweeps.push(op_sweeps);
            }
            Ok(_) => failure = Some(format!("traced loop {i}: final policy differs")),
            Err(e) => failure = Some(format!("traced loop {i}: {e}")),
        }
    });
    report.check(failure.is_none(), || failure.clone().unwrap_or_default());

    let counter = |name: &str| registry.registry().map_or(0, |r| r.counter(name).get()) as f64;
    let hits = counter("platform.cost_cache.hit");
    let lookups = hits + counter("platform.cost_cache.miss");
    let retrains = rec.durations("pipeline.retrain");
    let per_retrain = |k: usize| -> Vec<f64> {
        retrains
            .iter()
            .skip(k)
            .step_by(WINDOWS - 1)
            .copied()
            .collect()
    };
    let per_op = |name: &str| med(&rec.per_op_totals("op", name));
    report.metric("ingest.split_ms", per_op("ingest.split"));
    report.metric("error_type.filter_ms", per_op("error_type.filter"));
    report.metric("error_type.kept_ratio", med(&kept_ratio));
    report.metric("error_type.rank_ms", per_op("error_type.rank"));
    report.metric("platform.build_ms", per_op("platform.build"));
    report.metric("platform.cost_cache_hit_ratio", hits / lookups);
    report.metric("selection_tree.train_ms", per_op("selection_tree.train"));
    report.metric("selection_tree.sweeps", med(&sweeps));
    report.metric("simlog.window_ms", med(&rec.durations("simlog.window")));
    report.metric("pipeline.retrain_first_ms", med(&per_retrain(0)));
    report.metric("pipeline.retrain_last_ms", med(&per_retrain(WINDOWS - 2)));
    report.metric("durable.record_ms", med(&rec.durations("durable.record")));
    report.metric(
        "durable.bytes_per_window",
        med(&state_bytes) / WINDOWS as f64,
    );
    report.metric(
        "serve.snapshot_build_ms",
        med(&rec.durations("serve.snapshot_build")),
    );
    report.metric("serve.publish_ms", med(&rec.durations("serve.publish")));
    report.metric("trace.overhead_pct", overhead_pct(untraced_ms, &op_ms));
    Ok(())
}

/// One loop re-driven layer by layer. Returns the final policy text, the
/// noise filter's last kept ratio and the selection tree's total sweeps.
fn traced_loop(
    rec: &Recorder,
    root: Open,
    catalog: &FaultCatalog,
    config: &ContinuousLoopConfig,
    dir: &Path,
    registry: &Telemetry,
) -> Result<(String, f64, f64), String> {
    let disabled = Telemetry::disabled();
    let pool = WorkerPool::new(config.threads);
    let store = PolicyStore::new();
    let mut durable = DurableLoop::open(dir)?;
    if durable
        .resume(catalog.symptoms(), config.seed, config.windows, &pool)?
        .is_some()
    {
        return Err("a fresh state directory resumed".into());
    }
    let mut outcomes: Vec<WindowOutcome> = Vec::new();
    let mut accumulated: Vec<RecoveryProcess> = Vec::new();
    let mut current: Option<TrainedPolicy> = None;
    let (mut kept_ratio, mut sweeps) = (0.0, 0.0);
    for window in 0..config.windows {
        let span = rec.child(root, "pipeline.window");
        let window_seed = config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(window as u64);
        let mut log = rec.time(span, "simlog.window", || match &current {
            None => {
                ClusterSim::new(
                    catalog,
                    UserDefinedPolicy::default(),
                    config.cluster.clone(),
                    window_seed,
                )
                .run()
                .0
            }
            Some(policy) => {
                let live = LivePolicy::new(HybridPolicy::new(
                    policy.clone(),
                    UserStatePolicy::default(),
                ));
                ClusterSim::new(catalog, live, config.cluster.clone(), window_seed)
                    .run()
                    .0
            }
        });
        let journal_text = rec.time(span, "durable.encode", || log.to_text());
        let processes = rec.time(span, "ingest.split", || {
            split_processes(&mut log, &pool, &disabled)
        });
        let outcome = WindowOutcome {
            window,
            processes: processes.len(),
            mttr: stats::mttr(&processes),
            learned_policy: current.is_some(),
            policy_entries: current.as_ref().map_or(0, |p| p.q().len()),
            status: WindowStatus::Trained,
        };
        rec.time(span, "pipeline.accumulate", || {
            accumulated.extend(processes);
            accumulated.sort_by_key(|p| (p.start(), p.machine()));
        });
        let mut retrained = false;
        if window + 1 < config.windows {
            let retrain = rec.child(span, "pipeline.retrain");
            let filtered = rec.time(retrain, "error_type.filter", || {
                NoiseFilter::new(config.minp).partition(accumulated.clone())
            });
            kept_ratio = filtered.kept_fraction();
            let types = rec.time(retrain, "error_type.rank", || {
                ErrorTypeRanking::from_processes(&filtered.clean).top_k(config.top_k)
            });
            if types.is_empty() {
                return Err(format!("window {window}: no trainable types"));
            }
            let trainer = rec.time(retrain, "platform.build", || {
                OfflineTrainer::new(&filtered.clean, config.trainer.clone())
                    .with_threads(config.threads)
                    .with_observer(registry.observer_handle())
            });
            let (policy, stats) = rec.time(retrain, "selection_tree.train", || {
                SelectionTreeTrainer::new(&trainer, config.tree.clone()).train(&types)
            });
            rec.end(retrain);
            sweeps += stats.iter().map(|s| s.sweeps as f64).sum::<f64>();
            current = Some(policy);
            retrained = true;
        }
        if let (true, Some(policy)) = (retrained, &current) {
            let snapshot = rec.time(span, "serve.snapshot_build", || {
                PolicySnapshot::build(
                    policy,
                    catalog.symptoms(),
                    &format!("window:{window}"),
                    Some(&accumulated),
                )
            });
            rec.time(span, "serve.publish", || {
                publish_snapshot(&store, &disabled, snapshot)
            });
        }
        outcomes.push(outcome);
        rec.time(span, "durable.record", || {
            durable.record_window(
                window,
                config.windows,
                config.seed,
                &journal_text,
                &outcomes,
                current.as_ref(),
                catalog.symptoms(),
                &disabled,
            )
        })
        .map_err(|e| format!("window {window}: {e}"))?;
        rec.end(span);
    }
    let policy = current.ok_or("no policy was trained")?;
    Ok((
        policy_to_text(&policy, catalog.symptoms()),
        kept_ratio,
        sweeps,
    ))
}

/// Total size of the regular files directly in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
