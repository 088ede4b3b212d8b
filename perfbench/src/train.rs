//! `train-s025`: the operator's `train` command, log file to policy file,
//! at `--threads` = cores and the standard (flat Q-learning) method.
//!
//! One op reads the scale-0.25 log from disk, parses it, splits it into
//! recovery processes, filters noise, ranks error types, splits off the
//! first 40 % by time, trains the top 40 types and writes the policy.

use std::fs;
use std::path::Path;

use recovery_core::evaluate::{evaluate, time_ordered_split};
use recovery_core::experiment::ExperimentContext;
use recovery_core::ingest::{parse_log, split_processes};
use recovery_core::persist::policy_to_text;
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_core::{
    ErrorTypeRanking, HybridPolicy, NoiseFilter, OfflineTrainer, TrainedPolicy, TrainerConfig,
    UserStatePolicy, WorkerPool,
};
use recovery_simlog::{GeneratorConfig, LogGenerator};
use recovery_telemetry::Telemetry;

use crate::sample::Usage;
use crate::spans::Recorder;
use crate::{med, overhead_pct, repeat_for, timed, Report, Run, Units, SETUPS};

const SCALE: f64 = 0.25;
const MINP: f64 = 0.1;
const TOP_K: usize = 40;
const TRAIN_FRACTION: f64 = 0.4;
const MAX_ATTEMPTS: usize = 20;

/// What one op produced: the policy file's text and the inputs the
/// held-out evaluation needs.
struct Trained {
    text: String,
    ctx: ExperimentContext,
    policy: TrainedPolicy,
}

pub fn run(run: &Run, rec: &Recorder, report: &mut Report) -> Result<(), String> {
    let log_path = run.work.join("train.log");
    let policy_path = run.work.join("train.policy");
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let (s, written) = timed(|| {
            let config = GeneratorConfig::paper_scale(SCALE).with_seed(run.seed);
            let mut generated = LogGenerator::new(config).generate();
            fs::write(&log_path, generated.log.to_text())
        });
        written.map_err(|e| format!("writing {}: {e}", log_path.display()))?;
        setup_s.push(s);
    }

    let budget = if run.trace {
        run.seconds / 2
    } else {
        run.seconds
    };
    let mut units = Units::default();
    let mut reference: Option<Trained> = None;
    repeat_for(budget, |i| {
        let before = Usage::now();
        let (s, trained) = timed(|| op(&log_path, &policy_path, run.nproc));
        units.cpu_ms += Usage::now().since(&before).cpu_ms();
        units.busy_s += s;
        units.op_ms.push(s * 1e3);
        match (trained, &reference) {
            (Ok(trained), Some(first)) => report.check(trained.text == first.text, || {
                format!("op {i}: policy text differs from op 0")
            }),
            (Ok(trained), None) => {
                report.check(true, String::new);
                reference = Some(trained);
            }
            (Err(e), _) => report.check(false, || format!("op {i}: {e}")),
        }
    });
    let reference = reference.ok_or("no op produced a policy")?;

    if run.trace {
        return traced(
            run,
            rec,
            report,
            &log_path,
            &policy_path,
            &reference,
            &units.op_ms,
        );
    }
    let cost = heldout_relative_cost(&reference);
    report.check(cost < 1.0, || {
        format!("held-out relative cost {cost} is not below the user policy's")
    });
    report.end_to_end(setup_s, units, cost);
    Ok(())
}

/// One untraced op, exactly the `train` command's composition.
fn op(log_path: &Path, policy_path: &Path, threads: usize) -> Result<Trained, String> {
    let telemetry = Telemetry::disabled();
    let pool = WorkerPool::new(threads);
    let text = fs::read_to_string(log_path).map_err(|e| e.to_string())?;
    let mut log = parse_log(&text, &pool, &telemetry).map_err(|e| e.to_string())?;
    let ctx = ExperimentContext::prepare_from_log(&mut log, MINP, TOP_K, &pool, &telemetry);
    let (train_set, _) = time_ordered_split(&ctx.clean, TRAIN_FRACTION);
    let trainer = OfflineTrainer::new(train_set, TrainerConfig::default()).with_threads(threads);
    let (policy, _) = trainer.train(&ctx.types);
    let text = policy_to_text(&policy, log.symptoms());
    fs::write(policy_path, &text).map_err(|e| e.to_string())?;
    Ok(Trained { text, ctx, policy })
}

/// The hybrid policy's downtime on the held-out 60 %, relative to the
/// user-defined policy's (the paper's Fig. 9 measure; below 1 is better).
fn heldout_relative_cost(trained: &Trained) -> f64 {
    let (train_set, test_set) = time_ordered_split(&trained.ctx.clean, TRAIN_FRACTION);
    let platform = SimulationPlatform::from_processes(train_set, CostEstimation::AverageOnly);
    let hybrid = HybridPolicy::new(trained.policy.clone(), UserStatePolicy::default());
    evaluate(
        &hybrid,
        &platform,
        test_set,
        &trained.ctx.types,
        MAX_ATTEMPTS,
    )
    .overall_relative_cost()
}

/// The traced pass: the same op composed from its layers, each call in
/// its own span, plus a threads-1 run of the same training call for the
/// parallel speed-up.
fn traced(
    run: &Run,
    rec: &Recorder,
    report: &mut Report,
    log_path: &Path,
    policy_path: &Path,
    reference: &Trained,
    untraced_ms: &[f64],
) -> Result<(), String> {
    let disabled = Telemetry::disabled();
    let config = TrainerConfig::default();
    let mut op_ms = Vec::new();
    let (mut entries_per_s, mut kept_ratio) = (Vec::new(), Vec::new());
    let (mut sweeps, mut minflt, mut sys_ms) = (Vec::new(), 0u64, 0.0);
    let mut failure = None;
    repeat_for(run.seconds - run.seconds / 2, |i| {
        let root = rec.root("op", i);
        let pool = WorkerPool::new(run.nproc);
        let text = rec.time(root, "ingest.read", || fs::read_to_string(log_path));
        let Ok(text) = text else {
            failure = Some(format!("traced op {i}: reading the log"));
            return;
        };
        let Ok(mut log) = rec.time(root, "ingest.parse", || parse_log(&text, &pool, &disabled))
        else {
            failure = Some(format!("traced op {i}: parsing the log"));
            return;
        };
        let entries = log.len() as f64;
        let processes = rec.time(root, "ingest.split", || {
            split_processes(&mut log, &pool, &disabled)
        });
        let filtered = rec.time(root, "error_type.filter", || {
            NoiseFilter::new(MINP).partition(processes)
        });
        kept_ratio.push(filtered.kept_fraction());
        let types = rec.time(root, "error_type.rank", || {
            ErrorTypeRanking::from_processes(&filtered.clean).top_k(TOP_K)
        });
        let (train_set, _) = time_ordered_split(&filtered.clean, TRAIN_FRACTION);
        let trainer = rec.time(root, "platform.build", || {
            OfflineTrainer::new(train_set, config.clone()).with_threads(run.nproc)
        });
        let before = Usage::now();
        let (policy, stats) = rec.time(root, "trainer.train", || trainer.train(&types));
        let spent = Usage::now().since(&before);
        minflt += spent.minflt;
        sys_ms += spent.sys_ms;
        sweeps.push(stats.iter().map(|s| s.sweeps as f64).sum::<f64>());
        let written = rec.time(root, "persist.write", || {
            let text = policy_to_text(&policy, log.symptoms());
            fs::write(policy_path, &text).map(|()| text)
        });
        op_ms.push(rec.end(root));
        entries_per_s.push(entries);
        let text = written.unwrap_or_default();
        if text != reference.text {
            failure = Some(format!(
                "traced op {i}: policy differs from the untraced run"
            ));
        }

        // The same training call on one thread, outside the op's span.
        let probe = rec.root("probe", i);
        let single = OfflineTrainer::new(train_set, config.clone()).with_threads(1);
        let (policy_1, _) = rec.time(probe, "parallel.train_threads1", || single.train(&types));
        rec.end(probe);
        if policy_to_text(&policy_1, log.symptoms()) != reference.text {
            failure = Some(format!("traced op {i}: the threads-1 policy differs"));
        }
    });
    report.check(failure.is_none(), || failure.clone().unwrap_or_default());

    // Cost-cache counters come from the platform's observer hooks, read
    // through a registry-only telemetry handle on one more, untimed call.
    let registry = Telemetry::new();
    let (train_set, _) = time_ordered_split(&reference.ctx.clean, TRAIN_FRACTION);
    OfflineTrainer::new(train_set, config)
        .with_threads(run.nproc)
        .with_observer(registry.observer_handle())
        .train(&reference.ctx.types);
    let counter = |name: &str| registry.registry().map_or(0, |r| r.counter(name).get()) as f64;
    let hits = counter("platform.cost_cache.hit");
    let lookups = hits + counter("platform.cost_cache.miss");

    let ops = op_ms.len() as f64;
    let per_op = |name: &str| med(&rec.per_op_totals("op", name));
    // Entries parsed per op over that op's parse time.
    for (rate, ms) in entries_per_s
        .iter_mut()
        .zip(rec.per_op_totals("op", "ingest.parse"))
    {
        *rate /= ms / 1e3;
    }
    let train_ms = per_op("trainer.train");
    report.metric("ingest.parse_ms", per_op("ingest.parse"));
    report.metric("ingest.entries_per_s", med(&entries_per_s));
    report.metric("ingest.split_ms", per_op("ingest.split"));
    report.metric("error_type.filter_ms", per_op("error_type.filter"));
    report.metric("error_type.kept_ratio", med(&kept_ratio));
    report.metric("error_type.rank_ms", per_op("error_type.rank"));
    report.metric("platform.build_ms", per_op("platform.build"));
    report.metric("platform.cost_cache_hit_ratio", hits / lookups);
    report.metric("trainer.train_ms", train_ms);
    report.metric("trainer.sweeps", med(&sweeps));
    report.metric("trainer.sweeps_per_s", med(&sweeps) / (train_ms / 1e3));
    report.metric("trainer.minflt", minflt as f64 / ops);
    report.metric("trainer.sys_ms", sys_ms / ops);
    report.metric(
        "parallel.train_speedup",
        med(&rec.durations("parallel.train_threads1")) / train_ms,
    );
    report.metric("persist.write_ms", per_op("persist.write"));
    report.metric("trace.overhead_pct", overhead_pct(untraced_ms, &op_ms));
    Ok(())
}
