//! The autorecover benchmark: three workloads that drive the library's
//! public API from outside, one per end-to-end path of the system.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-s025 --seed 7 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the run is untraced and prints the end-to-end
//! metrics. It splits its time over [`WORKERS`] worker processes, run one
//! after another, each on its own input drawn from the seed, and pools
//! their samples: the cost of one input in one process varies by tens of
//! percent from process to process, and pooling steadies the figures.
//!
//! With `--trace 1` the run stays in one process on the seed's own input.
//! It splits its time between an untraced and a traced pass, prints the
//! per-layer metrics of the traced pass plus the tracing overhead, and
//! writes the spans to `.perfbench/spans-<workload>-seed<seed>.jsonl`.
//!
//! The last line of standard output is the result object; the line
//! before it names the host and the command. See `perfbench/README.md`
//! for the workloads and what each metric should move.

mod cycle;
mod sample;
mod serve;
mod spans;
mod summary;
mod train;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "fraction"),
    ("relative_cost", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer that the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("ingest.parse_ms", "ms"),
    ("ingest.entries_per_s", "1/s"),
    ("ingest.split_ms", "ms"),
    ("error_type.filter_ms", "ms"),
    ("error_type.kept_ratio", "ratio"),
    ("error_type.rank_ms", "ms"),
    ("platform.build_ms", "ms"),
    ("platform.cost_cache_hit_ratio", "ratio"),
    ("trainer.train_ms", "ms"),
    ("trainer.sweeps", "count"),
    ("trainer.sweeps_per_s", "1/s"),
    ("trainer.minflt", "count"),
    ("trainer.sys_ms", "ms"),
    ("parallel.train_speedup", "ratio"),
    ("selection_tree.train_ms", "ms"),
    ("selection_tree.sweeps", "count"),
    ("simlog.window_ms", "ms"),
    ("pipeline.retrain_first_ms", "ms"),
    ("pipeline.retrain_last_ms", "ms"),
    ("durable.record_ms", "ms"),
    ("durable.bytes_per_window", "bytes"),
    ("persist.write_ms", "ms"),
    ("serve.snapshot_build_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.ttfb_ms", "ms"),
    ("serve.server_request_ms", "ms"),
    ("serve.unexplained_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.requests", "count"),
    ("trace.overhead_pct", "%"),
];

/// Worker processes of an untraced run. Worker `k` measures input `k`.
pub const WORKERS: u64 = 6;

/// How many times a worker repeats its set-up; `setup_s` is the median
/// over the run's workers.
pub const SETUPS: usize = 3;

/// One process's settings.
#[derive(Debug)]
pub struct Run {
    /// Input seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time of this process.
    pub seconds: Duration,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// Cores available to the process.
    pub nproc: usize,
    /// Scratch directory, removed when the process ends.
    pub work: PathBuf,
}

/// The completed units of a timed phase.
#[derive(Debug, Default)]
pub struct Units {
    /// Latency of each unit, milliseconds.
    pub op_ms: Vec<f64>,
    /// Wall time spent completing the units, seconds.
    pub busy_s: f64,
    /// Process CPU time spent on the units, milliseconds.
    pub cpu_ms: f64,
}

/// What a run measured and checked: per-layer metrics in a traced run,
/// raw end-to-end samples in an untraced one.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    samples: BTreeMap<String, Vec<f64>>,
}

/// The raw sample series a worker hands its parent.
const SERIES: [&str; 9] = [
    "attempted",
    "failed",
    "setup_s",
    "op_ms",
    "ops",
    "busy_s",
    "cpu_ms",
    "peak_rss_mb",
    "relative_cost",
];

impl Report {
    /// Counts one attempted op or output check, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Records a per-layer metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records an untraced pass: its set-up times, the units it
    /// completed, and the recovery cost of what it produced relative to
    /// the user-defined policy.
    pub fn end_to_end(&mut self, setup_s: Vec<f64>, units: Units, relative_cost: f64) {
        let mut add = |name: &str, values: Vec<f64>| {
            self.samples
                .entry(name.to_string())
                .or_default()
                .extend(values);
        };
        add("setup_s", setup_s);
        add("ops", vec![units.op_ms.len() as f64]);
        add("op_ms", units.op_ms);
        add("busy_s", vec![units.busy_s]);
        add("cpu_ms", vec![units.cpu_ms]);
        add("peak_rss_mb", vec![sample::peak_rss_mb()]);
        add("relative_cost", vec![relative_cost]);
    }

    /// The raw samples as `name value…` lines, for the parent process.
    fn to_raw(&self) -> String {
        let mut out = format!("attempted {}\nfailed {}\n", self.attempted, self.failed);
        for (name, values) in &self.samples {
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            let _ = writeln!(out, "{name} {}", values.join(" "));
        }
        out
    }

    /// Adds a worker's raw samples (the output of [`Report::to_raw`]).
    fn absorb(&mut self, raw: &str) -> Result<(), String> {
        for line in raw.lines() {
            let mut words = line.split_whitespace();
            let name = words.next().unwrap_or_default();
            if !SERIES.contains(&name) {
                return Err(format!("unexpected worker output line {line:?}"));
            }
            let values = words
                .map(str::parse::<f64>)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("worker output line {line:?}: {e}"))?;
            match name {
                "attempted" => self.attempted += values.iter().sum::<f64>() as u64,
                "failed" => self.failed += values.iter().sum::<f64>() as u64,
                _ => self
                    .samples
                    .entry(name.to_string())
                    .or_default()
                    .extend(values),
            }
        }
        Ok(())
    }

    /// Turns the pooled samples into the end-to-end metrics. Fewer than
    /// `tail_needs` latency samples fail the run; a run too short for any
    /// tail percentile reports its slowest op.
    fn pool(&mut self, tail_needs: usize) {
        let samples = std::mem::take(&mut self.samples);
        let series = |name: &str| samples.get(name).cloned().unwrap_or_default();
        let (op_ms, setup_s) = (series("op_ms"), series("setup_s"));
        let n = op_ms.len();
        if tail_needs > 0 {
            self.check(n >= tail_needs, || {
                format!("the tail needs {tail_needs} latency samples, the run has {n}")
            });
        }
        let max = op_ms.iter().copied().fold(0.0, f64::max);
        let (q, tail_ms) = summary::tail(&op_ms).unwrap_or((100, max));
        eprintln!("op latency: {n} samples, p50 and p{q} reported");
        // Rates are taken per worker and their median reported, so one
        // worker caught in a slow spell of the host moves them little.
        let (ops, busy_s, cpu_ms) = (series("ops"), series("busy_s"), series("cpu_ms"));
        let per_worker = |f: fn(f64, f64, f64) -> f64| -> Vec<f64> {
            (0..ops.len())
                .map(|k| f(ops[k], busy_s[k], cpu_ms[k]))
                .collect()
        };
        let costs = series("relative_cost");
        let mean_cost = costs.iter().sum::<f64>() / costs.len() as f64;
        self.check(mean_cost < 1.0, || {
            format!("mean recovery cost relative to the user policy is {mean_cost}, not below 1")
        });
        self.metric("setup_s", med(&setup_s));
        self.metric("op_p50_ms", med(&op_ms));
        self.metric("op_tail_ms", tail_ms);
        self.metric("ops_per_s", med(&per_worker(|n, s, _| n / s)));
        self.metric("cpu_ms_per_op", med(&per_worker(|n, _, c| c / n)));
        self.metric("peak_rss_mb", med(&series("peak_rss_mb")));
        self.metric("relative_cost", mean_cost);
        let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.metric("ok_frac", ok);
    }

    fn render(&mut self, trace: bool) -> String {
        let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, _) in &self.metrics {
            assert!(
                expected.iter().any(|(n, _)| n == name),
                "metric {name} is not declared for this mode"
            );
        }
        let mut fields = Vec::new();
        for (name, unit) in expected {
            // Layers a workload does not reach read 0.
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let value = if value.is_finite() {
                value
            } else {
                self.check(false, || format!("{name} is not finite"));
                0.0
            };
            fields.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        )
    }
}

/// Runs `f` repeatedly for about `budget` (at least once), handing it the
/// iteration index. Another iteration starts only if at least half of
/// it, judged by the mean so far, fits before the deadline, so long ops
/// overrun the budget by half an op at most on average.
pub fn repeat_for(budget: Duration, mut f: impl FnMut(u64)) {
    let start = Instant::now();
    let mut i = 0;
    loop {
        f(i);
        i += 1;
        let spent = start.elapsed();
        if spent + spent / (2 * i as u32) >= budget {
            break;
        }
    }
}

/// Tracing overhead in percent: traced over untraced median, less one.
pub fn overhead_pct(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    100.0 * (med(traced_ms) / med(untraced_ms) - 1.0)
}

/// Median of `samples`, NaN when there are none (which fails the run
/// if it is reported).
pub fn med(samples: &[f64]) -> f64 {
    summary::median(samples).unwrap_or(f64::NAN)
}

/// Wall seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

const WORKLOADS: [&str; 3] = ["train-s025", "loop-w8", "serve-advise"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10.0,
        trace: false,
        worker: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        let bit = || match value.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1, not {value}")),
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = bit()?,
            // Internal: run one input and print raw samples for the parent.
            "--worker" => args.worker = bit()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    if args.worker && args.trace {
        return Err("a worker runs untraced".into());
    }
    Ok(args)
}

/// The commit of the checkout, when it is a git repository.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// The seed of worker `k`'s input: worker 0 uses the run's seed itself.
fn input_seed(seed: u64, k: u64) -> u64 {
    seed ^ (k << 32)
}

const OUT_DIR: &str = ".perfbench";

/// Removes the scratch directory however the process ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Runs the workload in this process.
fn run_here(args: &Args, report: &mut Report) -> Result<(), String> {
    let work = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let _cleanup = WorkDir(work.clone());
    let run = Run {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work,
    };
    let recorder = spans::Recorder::default();
    match args.workload.as_str() {
        "train-s025" => train::run(&run, &recorder, report)?,
        "loop-w8" => cycle::run(&run, &recorder, report)?,
        _ => serve::run(&run, &recorder, report)?,
    }
    if run.trace {
        let path =
            Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, run.seed));
        fs::write(&path, recorder.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs the workers one after another and pools their samples.
fn run_workers(args: &Args, report: &mut Report) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    for k in 0..WORKERS {
        let output = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--trace",
                "0",
                "--worker",
                "1",
            ])
            .args(["--seed", &input_seed(args.seed, k).to_string()])
            .args(["--seconds", &(args.seconds / WORKERS as f64).to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting worker {k}: {e}"))?;
        if !output.status.success() {
            return Err(format!("worker {k} exited with {}", output.status));
        }
        let raw = String::from_utf8(output.stdout).map_err(|_| "worker output is not UTF-8")?;
        report.absorb(&raw)?;
    }
    report.pool(if args.workload == "serve-advise" {
        serve::P99_SAMPLES
    } else {
        0
    });
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let outcome = if args.trace || args.worker {
        run_here(&args, &mut report)
    } else {
        run_workers(&args, &mut report)
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let result = (!args.worker).then(|| report.render(args.trace));
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let Some(result) = result else {
        print!("{}", report.to_raw());
        return ExitCode::SUCCESS;
    };
    println!(
        "{{\"host\":{{\"nproc\":{},\"commit\":{},\"workload\":{},\"seed\":{},\"trace\":{},\"command\":{}}}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&git_commit()),
        json_str(&args.workload),
        args.seed,
        args.trace,
        json_str(&argv.join(" "))
    );
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared = spec.matches("\"name\"").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for name in WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n))
        {
            assert!(spec.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv("--workload loop-w8 --seed 3 --seconds 2.5 --trace 1"))
            .expect("valid arguments");
        assert_eq!(
            (ok.seed, ok.seconds, ok.trace, ok.worker),
            (3, 2.5, true, false)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload loop-w8 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload loop-w8 --seconds")).is_err());
        assert!(parse_args(&argv("--workload loop-w8 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload loop-w8 --trace 1 --worker 1")).is_err());
    }

    #[test]
    fn workers_pool_their_samples() {
        let mut parent = Report::default();
        for k in 0..2 {
            let mut worker = Report::default();
            worker.check(true, String::new);
            worker.check(k == 0, || "second worker fails a check".into());
            let units = Units {
                op_ms: (1..=30).map(|i| (i + 30 * k) as f64).collect(),
                busy_s: 1.5 * (k + 1) as f64,
                cpu_ms: 60.0,
            };
            worker.end_to_end(vec![0.5 + k as f64], units, 0.5 + 0.25 * k as f64);
            parent.absorb(&worker.to_raw()).expect("raw output parses");
        }
        parent.pool(0);
        let metric = |name: &str| {
            parent
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .expect(name)
                .1
        };
        assert_eq!(metric("setup_s"), 1.0);
        assert_eq!(metric("op_p50_ms"), 30.5);
        assert_eq!(metric("op_tail_ms"), 50.0);
        assert_eq!(metric("ops_per_s"), 15.0);
        assert_eq!(metric("cpu_ms_per_op"), 2.0);
        assert_eq!(metric("relative_cost"), 0.625);
        assert_eq!(metric("ok_frac"), 0.8);
        let line = parent.render(false);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":5,\"failed\":1,"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
        }
        assert!(parent.absorb("bogus 1").is_err());
    }

    #[test]
    fn too_few_samples_for_the_tail_fail_the_run() {
        let mut report = Report::default();
        let units = Units {
            op_ms: vec![1.0; 999],
            busy_s: 1.0,
            cpu_ms: 1.0,
        };
        report.end_to_end(vec![0.1], units, 0.5);
        report.pool(1000);
        assert!(report.render(false).starts_with("{\"correct\":false"));
    }
}
