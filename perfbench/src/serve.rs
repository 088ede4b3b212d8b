//! `serve-advise`: the policy-serving daemon under recovery agents that
//! wait for advice before acting.
//!
//! The daemon runs in-process with its default config and serves a
//! policy trained by the selection tree on the first 40 % of a
//! scale-0.25 log, with a replay plane built from the whole log. A
//! closed loop of two clients, one connection per request, replays the
//! held-out 60 % of recovery processes in log order: one `POST /advise`
//! per step (symptom plus the actions tried so far) and one
//! `POST /simulate` per process with its logged actions. After every 256
//! requests of the two clients, client 0 rebuilds and publishes the
//! snapshot, so writes run beside reads. No training or ingest runs while
//! requests are timed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use recovery_core::evaluate::{evaluate, time_ordered_split};
use recovery_core::experiment::ExperimentContext;
use recovery_core::ingest::split_processes;
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_core::selection_tree::{SelectionTreeConfig, SelectionTreeTrainer};
use recovery_core::{
    ActionMultiset, ErrorType, HybridPolicy, OfflineTrainer, TrainedPolicy, TrainerConfig,
    UserStatePolicy, WorkerPool,
};
use recovery_serve::{publish_snapshot, PolicySnapshot, PolicyStore, ServeConfig, ServeDaemon};
use recovery_simlog::{GeneratorConfig, LogGenerator, RecoveryProcess, SymptomCatalog};
use recovery_telemetry::Telemetry;

use crate::sample::Usage;
use crate::spans::Recorder;
use crate::{json_str, med, overhead_pct, timed, Report, Run, Units, SETUPS};

const SCALE: f64 = 0.25;
const MINP: f64 = 0.1;
const TOP_K: usize = 40;
const TRAIN_FRACTION: f64 = 0.4;
const MAX_ATTEMPTS: usize = 20;
const CLIENTS: usize = 2;
/// Client 0 republishes the snapshot after every this many requests of
/// all clients.
const REPUBLISH_EVERY: u64 = 256;
/// The p99 is reported only from at least this many samples.
pub const P99_SAMPLES: usize = 1000;

/// The answer a request must get.
#[derive(Debug, Clone)]
enum Expect {
    /// `200` advice whose `state` is this pre-rendered explanation.
    Advice(String),
    /// `200` what-if replay.
    Simulated,
    /// A typed `404` error with this reason.
    Typed404(&'static str),
}

#[derive(Debug, Clone)]
struct Request {
    bytes: Vec<u8>,
    expect: Expect,
}

/// Everything the timed phase serves from.
struct Served {
    policy: TrainedPolicy,
    symptoms: SymptomCatalog,
    processes: Vec<RecoveryProcess>,
    store: PolicyStore,
    requests: Vec<Request>,
    relative_cost: f64,
}

pub fn run(run: &Run, rec: &Recorder, report: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        // Each set-up ends with a bound daemon; earlier ones are dropped.
        drop(ready.take());
        let (s, built) = timed(|| -> Result<_, String> {
            let served = setup(run)?;
            let daemon = bind(&served.store, Telemetry::disabled())?;
            Ok((served, daemon))
        });
        setup_s.push(s);
        ready = Some(built?);
    }
    let (served, daemon) = ready.expect("at least one set-up");
    report.check(!served.requests.is_empty(), || {
        "no held-out requests".into()
    });
    let count = |f: fn(&Expect) -> bool| served.requests.iter().filter(|r| f(&r.expect)).count();
    eprintln!(
        "serve-advise: {} requests per pass of the held-out stream: {} advised, {} simulated, {} typed 404",
        served.requests.len(),
        count(|e| matches!(e, Expect::Advice(_))),
        count(|e| matches!(e, Expect::Simulated)),
        count(|e| matches!(e, Expect::Typed404(_))),
    );

    let budget = if run.trace {
        run.seconds / 2
    } else {
        run.seconds
    };
    let untraced = drive(&served, daemon.local_addr(), budget, None, report);
    drop(daemon);

    if !run.trace {
        report.check(served.relative_cost < 1.0, || {
            format!(
                "served policy's held-out relative cost {}",
                served.relative_cost
            )
        });
        report.end_to_end(setup_s, untraced.units, served.relative_cost);
        return Ok(());
    }

    // The traced pass: a daemon whose registry-only telemetry records its
    // own request histogram, and client-side spans per request.
    let telemetry = Telemetry::new();
    let daemon = bind(&served.store, telemetry.clone())?;
    let traced = drive(
        &served,
        daemon.local_addr(),
        run.seconds - budget,
        Some(rec),
        report,
    );
    drop(daemon);
    let registry = telemetry.registry().expect("enabled telemetry");
    let server_ms = telemetry
        .snapshot()
        .and_then(|s| s.histograms.get("serve.request.ms").map(|h| h.mean()))
        .unwrap_or(0.0);
    let client_p50 = med(&traced.units.op_ms);
    report.metric(
        "serve.snapshot_build_ms",
        med(&rec.durations("serve.snapshot_build")),
    );
    report.metric("serve.publish_ms", med(&rec.durations("serve.publish")));
    report.metric("serve.connect_ms", med(&rec.durations("serve.connect")));
    report.metric("serve.ttfb_ms", med(&traced.ttfb_ms));
    report.metric("serve.server_request_ms", server_ms);
    report.metric("serve.unexplained_ms", client_p50 - server_ms);
    report.metric("serve.shed", registry.counter("serve.shed").get() as f64);
    report.metric("serve.requests", traced.units.op_ms.len() as f64);
    report.metric(
        "trace.overhead_pct",
        overhead_pct(&untraced.units.op_ms, &traced.units.op_ms),
    );
    Ok(())
}

fn bind(store: &PolicyStore, telemetry: Telemetry) -> Result<ServeDaemon, String> {
    ServeDaemon::bind(
        "127.0.0.1:0",
        store.clone(),
        telemetry,
        ServeConfig::default(),
    )
    .map_err(|e| format!("binding the daemon: {e}"))
}

/// Generates the log, trains the served policy, publishes its snapshot
/// and renders the held-out request stream with its expected answers.
fn setup(run: &Run) -> Result<Served, String> {
    let disabled = Telemetry::disabled();
    let pool = WorkerPool::new(run.nproc);
    let mut log = LogGenerator::new(GeneratorConfig::paper_scale(SCALE).with_seed(run.seed))
        .generate()
        .log;
    let processes = split_processes(&mut log, &pool, &disabled);
    let ctx = ExperimentContext::prepare(processes.clone(), MINP, TOP_K);
    let (train_set, test_set) = time_ordered_split(&ctx.clean, TRAIN_FRACTION);
    let trainer = OfflineTrainer::new(train_set, TrainerConfig::default()).with_threads(run.nproc);
    let (policy, _) =
        SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default()).train(&ctx.types);
    let symptoms = log.symptoms().clone();
    let snapshot = PolicySnapshot::build(&policy, &symptoms, "perfbench", Some(&processes));
    let requests = requests(&snapshot, &symptoms, test_set)?;
    let store = PolicyStore::new();
    publish_snapshot(&store, &disabled, snapshot);

    let platform = SimulationPlatform::from_processes(train_set, CostEstimation::AverageOnly);
    let hybrid = HybridPolicy::new(policy.clone(), UserStatePolicy::default());
    let relative_cost =
        evaluate(&hybrid, &platform, test_set, &ctx.types, MAX_ATTEMPTS).overall_relative_cost();
    Ok(Served {
        policy,
        symptoms,
        processes,
        store,
        requests,
        relative_cost,
    })
}

fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The held-out processes as requests, in log order.
fn requests(
    snapshot: &PolicySnapshot,
    symptoms: &SymptomCatalog,
    test_set: &[RecoveryProcess],
) -> Result<Vec<Request>, String> {
    let mut out = Vec::new();
    for process in test_set {
        let symptom = symptoms
            .name(ErrorType::of(process).symptom())
            .ok_or("a held-out process has an unnamed symptom")?;
        let known = snapshot.knows_symptom(symptom);
        let actions: Vec<_> = process.actions().iter().map(|a| a.action).collect();
        let list = |n: usize| {
            let quoted: Vec<String> = actions[..n]
                .iter()
                .map(|a| format!("\"{}\"", a.as_str()))
                .collect();
            format!("[{}]", quoted.join(","))
        };
        for step in 0..actions.len() {
            let tried = ActionMultiset::from_actions(actions[..step].iter().copied());
            let expect = match (known, snapshot.advice(symptom, tried)) {
                (false, _) => Expect::Typed404("unknown_symptom"),
                (true, Some(advice)) => Expect::Advice(advice.to_string()),
                (true, None) => Expect::Typed404("unadvised_state"),
            };
            let body = format!(
                "{{\"symptom\":{},\"tried\":{}}}",
                json_str(symptom),
                list(step)
            );
            out.push(Request {
                bytes: http_post("/advise", &body),
                expect,
            });
        }
        if actions.is_empty() {
            continue;
        }
        let replayed = snapshot
            .replay()
            .and_then(|plane| plane.simulate(symptom, &actions));
        let expect = match (known, replayed) {
            (false, _) => Expect::Typed404("unknown_symptom"),
            (true, Some(_)) => Expect::Simulated,
            (true, None) => Expect::Typed404("unsimulated_symptom"),
        };
        let body = format!(
            "{{\"symptom\":{},\"actions\":{}}}",
            json_str(symptom),
            list(actions.len())
        );
        out.push(Request {
            bytes: http_post("/simulate", &body),
            expect,
        });
    }
    Ok(out)
}

/// What the clients measured.
#[derive(Debug, Default)]
struct Drive {
    units: Units,
    ttfb_ms: Vec<f64>,
}

/// Runs the closed loop of [`CLIENTS`] clients for `budget`. With a
/// recorder, each request and each republication is traced.
fn drive(
    served: &Served,
    addr: SocketAddr,
    budget: Duration,
    rec: Option<&Recorder>,
    report: &mut Report,
) -> Drive {
    let results = Mutex::new(Vec::new());
    let sent = AtomicU64::new(0);
    let started = Instant::now();
    let before = Usage::now();
    let deadline = started + budget;
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (results, sent) = (&results, &sent);
            scope.spawn(move || {
                let outcome = client_loop(served, addr, client, deadline, sent, rec);
                results.lock().expect("client results").push(outcome);
            });
        }
    });
    let busy_s = started.elapsed().as_secs_f64();
    let cpu_ms = Usage::now().since(&before).cpu_ms();
    let mut drive = Drive::default();
    for client in results.into_inner().expect("client results") {
        for problem in client.problems {
            report.check(false, || problem);
        }
        for _ in 0..client.ok {
            report.check(true, String::new);
        }
        drive.units.op_ms.extend(client.op_ms);
        drive.ttfb_ms.extend(client.ttfb_ms);
    }
    drive.units.busy_s = busy_s;
    drive.units.cpu_ms = cpu_ms;
    drive
}

#[derive(Debug, Default)]
struct ClientOutcome {
    op_ms: Vec<f64>,
    ttfb_ms: Vec<f64>,
    ok: u64,
    problems: Vec<String>,
}

fn client_loop(
    served: &Served,
    addr: SocketAddr,
    client: usize,
    deadline: Instant,
    sent: &AtomicU64,
    rec: Option<&Recorder>,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    // Clients start at evenly spaced points of the same log-ordered stream.
    let n = served.requests.len();
    let mut next = client * n / CLIENTS;
    let mut last_version = 0u64;
    let mut republished = 0u64;
    while Instant::now() < deadline {
        let request = &served.requests[next % n];
        next += 1;
        let id = sent.fetch_add(1, Ordering::Relaxed);
        match exchange(addr, &request.bytes, rec, id) {
            Ok(timing) => {
                out.op_ms.push(timing.total_ms);
                out.ttfb_ms.push(timing.ttfb_ms);
                match check(&timing.response, &request.expect, &mut last_version) {
                    Ok(()) => out.ok += 1,
                    Err(e) => out.problems.push(format!("client {client}: {e}")),
                }
            }
            Err(e) => out.problems.push(format!("client {client}: {e}")),
        }
        if client == 0 && sent.load(Ordering::Relaxed) >= (republished + 1) * REPUBLISH_EVERY {
            republished += 1;
            // Op ids above 2^40 keep republications apart from requests.
            republish(served, rec, (1 << 40) + republished);
        }
    }
    out
}

fn republish(served: &Served, rec: Option<&Recorder>, id: u64) {
    let root = rec.map(|r| r.root("republish", id));
    let build = || {
        PolicySnapshot::build(
            &served.policy,
            &served.symptoms,
            "perfbench",
            Some(&served.processes),
        )
    };
    let publish = |snapshot| publish_snapshot(&served.store, &Telemetry::disabled(), snapshot);
    match (rec, root) {
        (Some(rec), Some(root)) => {
            let snapshot = rec.time(root, "serve.snapshot_build", build);
            rec.time(root, "serve.publish", || publish(snapshot));
            rec.end(root);
        }
        _ => {
            publish(build());
        }
    }
}

struct Timing {
    total_ms: f64,
    ttfb_ms: f64,
    response: Vec<u8>,
}

/// One request on its own connection, timed from connect to the last
/// byte read.
fn exchange(
    addr: SocketAddr,
    request: &[u8],
    rec: Option<&Recorder>,
    id: u64,
) -> Result<Timing, String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connected = Instant::now();
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(request)
        .map_err(|e| format!("send: {e}"))?;
    let mut response = Vec::with_capacity(4096);
    let mut buf = [0u8; 4096];
    let mut first = None;
    loop {
        let n = stream.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            break;
        }
        first.get_or_insert_with(Instant::now);
        response.extend_from_slice(&buf[..n]);
    }
    let end = Instant::now();
    let first = first.ok_or("empty response")?;
    if let Some(rec) = rec {
        let root = rec.root("request", id);
        rec.record(root, "serve.connect", start, connected);
        rec.record(root, "serve.wait", connected, first);
        rec.record(root, "serve.read", first, end);
        rec.end(root);
    }
    let ms = |t: Instant| t.duration_since(start).as_secs_f64() * 1e3;
    Ok(Timing {
        total_ms: ms(end),
        ttfb_ms: ms(first),
        response,
    })
}

/// Checks one response against its expected answer, and that versions
/// never go backwards for one client.
fn check(response: &[u8], expect: &Expect, last_version: &mut u64) -> Result<(), String> {
    let text = std::str::from_utf8(response).map_err(|_| "response is not UTF-8")?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("response has no body")?;
    let status = head.lines().next().unwrap_or_default();
    let version = body
        .split_once("\"version\":")
        .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| format!("no version in {body}"))?;
    if version < *last_version {
        return Err(format!(
            "version went back from {last_version} to {version}"
        ));
    }
    *last_version = version;
    let ok = match expect {
        Expect::Advice(state) => {
            status.starts_with("HTTP/1.1 200")
                && body.starts_with("{\"type\":\"advise\"")
                && body.contains(state.as_str())
        }
        Expect::Simulated => {
            status.starts_with("HTTP/1.1 200") && body.starts_with("{\"type\":\"simulate\"")
        }
        Expect::Typed404(reason) => {
            status.starts_with("HTTP/1.1 404")
                && body.contains("\"type\":\"error\"")
                && body.contains(&format!("\"reason\":\"{reason}\""))
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {expect:?}, got {status}: {body}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: &str, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn responses_are_checked_against_the_expected_answer() {
        let mut version = 0;
        let advice = Expect::Advice("{\"a\":1}".into());
        let good = response(
            "200 OK",
            "{\"type\":\"advise\",\"version\":3,\"state\":{\"a\":1}}",
        );
        assert!(check(&good, &advice, &mut version).is_ok());
        assert_eq!(version, 3);
        let wrong = response(
            "200 OK",
            "{\"type\":\"advise\",\"version\":3,\"state\":{\"a\":2}}",
        );
        assert!(check(&wrong, &advice, &mut version).is_err());
        let unknown = response(
            "404 Not Found",
            "{\"type\":\"error\",\"reason\":\"unknown_symptom\",\"version\":4}",
        );
        assert!(check(&unknown, &Expect::Typed404("unknown_symptom"), &mut version).is_ok());
        assert!(check(&unknown, &Expect::Simulated, &mut version).is_err());
    }

    #[test]
    fn versions_must_not_go_back() {
        let mut version = 5;
        let old = response("200 OK", "{\"type\":\"simulate\",\"version\":4}");
        assert!(check(&old, &Expect::Simulated, &mut version).is_err());
        let shed = response("503 Service Unavailable", "{\"type\":\"shed\"}");
        assert!(check(&shed, &Expect::Simulated, &mut version).is_err());
    }
}
