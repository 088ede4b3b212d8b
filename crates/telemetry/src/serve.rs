//! The one HTTP server of the workspace: a minimal std-only
//! blocking-TCP endpoint. [`HttpServer::metrics`] mounts the read-only
//! telemetry routes behind the CLI's global `--metrics-listen ADDR`
//! flag; the `recovery-serve` policy daemon mounts its own [`Routes`] on
//! the same server.
//!
//! The telemetry routes are read-only views of one [`Telemetry`] handle:
//!
//! | route               | body                                                   |
//! |---------------------|--------------------------------------------------------|
//! | `/metrics`          | Prometheus text format of the metrics snapshot         |
//! | `/snapshot`         | the JSONL sink's `snapshot` object, as one JSON body   |
//! | `/healthz`          | loop status: phase, last window, fallback reason       |
//! | `/events`           | NDJSON stream of live telemetry events (off the bus)   |
//! | `/traces`           | summaries of the retained finished trace trees         |
//! | `/trace/<id>`       | one finished trace tree as nested JSON                 |
//! | `/trace/<id>/profile` | the same tree as a flamegraph-style text profile     |
//! | `/trace/last`       | the most recently finished trace tree                  |
//! | `/convergence`      | NDJSON stream of live `convergence` events only        |
//! | `/convergence/sse`  | the same stream with Server-Sent-Events framing        |
//!
//! The server is deliberately primitive — one accept thread blocked in
//! `accept`, one short-lived thread per connection, HTTP/1.0 semantics
//! with `Connection: close` — because it must never compete with the
//! pipeline it observes: every telemetry handler only *reads* snapshots
//! or subscribes to the bounded [`EventBus`], whose backpressure rule
//! (drop, never block) already guarantees a stuck scraper cannot perturb
//! training. Byte-identity of trained policies with the server on or off
//! is enforced by `tests/observe.rs`.
//!
//! **Bounded concurrency**: the accept thread claims an in-flight slot
//! before any request byte is read. With every slot taken the connection
//! gets a typed `503 {"type":"shed"}`; once [`HttpServer::drain`] began
//! it gets a typed `503 {"type":"draining"}`. Either way the mounted
//! [`Routes`] hear about it through [`Routes::rejected`]. Shutdown,
//! drain and `Drop` wake the blocked `accept` with a connection of their
//! own to the bound port.
//!
//! [`EventBus`]: crate::EventBus

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::event::snapshot_to_json;
use crate::prometheus::render_prometheus;
use crate::Telemetry;

/// Read timeout for one incoming request head.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Concurrently running connection handlers an [`HttpServer`] allows
/// unless its owner picks another bound; [`HttpServer::metrics`] always
/// uses this one.
pub const DEFAULT_MAX_INFLIGHT: usize = 64;

/// How long an `/events` stream waits for the next bus line before
/// re-checking the shutdown flag.
const EVENT_POLL: Duration = Duration::from_millis(200);

/// Maximum accepted request head (request line plus headers), bytes.
const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Maximum accepted request body size, bytes. Requests above this are
/// dropped rather than buffered (the policy daemon's `/advise` and
/// `/simulate` bodies are a few hundred bytes at most).
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed HTTP request: the method, the path (query stripped), and
/// the raw body bytes (empty unless a `Content-Length` was sent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Upper-cased request method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with any `?query` stripped.
    pub path: String,
    /// Raw request body (bounded by [`MAX_BODY_BYTES`]).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The body as UTF-8 text, if valid.
    pub fn body_text(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// The routes an [`HttpServer`] mounts.
pub trait Routes: Send + Sync + 'static {
    /// Answers one parsed request on `stream`, on the connection's own
    /// thread while it holds an in-flight slot. `accepted` is when
    /// `accept` returned the connection; `stop` is raised when the
    /// server quiesces, and long-lived streams must watch it.
    ///
    /// # Errors
    ///
    /// A socket error; the server drops the connection.
    fn respond(
        &self,
        request: HttpRequest,
        stream: TcpStream,
        accepted: Instant,
        stop: &AtomicBool,
    ) -> io::Result<()>;

    /// Called once for every accepted connection the server answered
    /// with a typed 503 (or could not hand to a thread) instead of
    /// routing it.
    fn rejected(&self) {}
}

/// The read-only telemetry routes of [`HttpServer::metrics`]. They
/// touch no registry counter, so the metrics snapshot is the same with
/// the server on or off.
struct TelemetryRoutes(Telemetry);

impl Routes for TelemetryRoutes {
    fn respond(
        &self,
        request: HttpRequest,
        mut stream: TcpStream,
        _accepted: Instant,
        stop: &AtomicBool,
    ) -> io::Result<()> {
        // The metrics server is strictly read-only: non-GET is dropped.
        if request.method != "GET" {
            return Ok(());
        }
        match respond_telemetry(&request, stream.try_clone()?, &self.0, stop, None) {
            Some(result) => result,
            None => write_response(
                &mut stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found: /metrics /snapshot /healthz /events /traces /trace/<id> /convergence\n",
                None,
            ),
        }
    }
}

/// Flags shared between an [`HttpServer`] handle, its accept thread and
/// its connection threads.
#[derive(Debug, Default)]
struct ServerState {
    /// The accept loop exits on its next accept.
    stop: AtomicBool,
    /// New connections get the draining 503 and streams finish.
    quiesce: AtomicBool,
    /// Connection handlers currently holding a slot.
    inflight: AtomicUsize,
}

/// A running HTTP server bound to one local address.
///
/// Dropping the server quiesces it, wakes and joins the accept thread;
/// in-flight connection handlers finish on their own (event streams
/// re-check the quiesce flag a few times per second).
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:9187`, port `0` for an ephemeral
    /// port) and serves `routes` with at most `max_inflight` connection
    /// handlers running at once.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the address cannot be
    /// bound.
    pub fn bind<R: Routes>(addr: &str, max_inflight: usize, routes: R) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let state = Arc::new(ServerState::default());
        let accept_state = state.clone();
        let accept_thread = std::thread::Builder::new()
            .name("http-accept".to_string())
            .spawn(move || accept_loop(listener, Arc::new(routes), accept_state, max_inflight))?;
        Ok(HttpServer {
            addr: local,
            state,
            accept_thread: Some(accept_thread),
        })
    }

    /// Binds `addr` and serves the read-only views of `telemetry` (the
    /// routes in the module docs), bounded at [`DEFAULT_MAX_INFLIGHT`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the address cannot be
    /// bound.
    pub fn metrics(addr: &str, telemetry: Telemetry) -> io::Result<HttpServer> {
        HttpServer::bind(addr, DEFAULT_MAX_INFLIGHT, TelemetryRoutes(telemetry))
    }

    /// The actually bound address (resolves port `0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection handlers currently running.
    pub fn inflight(&self) -> usize {
        self.state.inflight.load(Ordering::SeqCst)
    }

    /// Stops taking new connections and tells every long-lived stream to
    /// finish. In-flight handlers still complete on their own; use
    /// [`HttpServer::drain`] to wait for them.
    pub fn shutdown(&self) {
        self.state.quiesce.store(true, Ordering::SeqCst);
        self.stop_accepting();
    }

    /// Gracefully drains the server: stop accepting work (new
    /// connections get a typed `503 {"type":"draining"}`), let every
    /// in-flight handler finish, then stop the accept loop. Returns
    /// `true` when all handlers completed within `timeout`, `false` when
    /// the deadline cut the wait short (the server is stopped either
    /// way).
    pub fn drain(&self, timeout: Duration) -> bool {
        self.state.quiesce.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
        while self.inflight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let drained = self.inflight() == 0;
        self.stop_accepting();
        drained
    }

    /// Raises the stop flag, then wakes the accept thread blocked in
    /// `accept` with a connection of our own, aimed at loopback when the
    /// server is bound to an unspecified address. Only the first call
    /// connects: once the listener is closed its port may belong to
    /// another server.
    fn stop_accepting(&self) {
        if self.state.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop<R: Routes>(
    listener: TcpListener,
    routes: Arc<R>,
    state: Arc<ServerState>,
    max_inflight: usize,
) {
    loop {
        let accepted = listener.accept();
        let accepted_at = Instant::now();
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok((stream, _peer)) = accepted else {
            break;
        };
        // A draining server takes no new work: answer with the typed
        // draining 503 so clients can tell shutdown from overload.
        if state.quiesce.load(Ordering::SeqCst) {
            routes.rejected();
            reject_connection(stream, "draining", "shutting down");
            continue;
        }
        // The shed decision is taken here, before any request work:
        // claim a slot, and give it back immediately when the server is
        // saturated.
        if state.inflight.fetch_add(1, Ordering::SeqCst) >= max_inflight {
            state.inflight.fetch_sub(1, Ordering::SeqCst);
            routes.rejected();
            reject_connection(stream, "shed", "overloaded");
            continue;
        }
        let (conn_routes, conn_state) = (routes.clone(), state.clone());
        let spawned = std::thread::Builder::new()
            .name("http-conn".to_string())
            .spawn(move || {
                let _ = handle_connection(stream, &*conn_routes, accepted_at, &conn_state.quiesce);
                conn_state.inflight.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            // Spawn failure sheds too: the slot was claimed but no
            // handler will run or respond.
            state.inflight.fetch_sub(1, Ordering::SeqCst);
            routes.rejected();
        }
    }
}

/// Reads one request off `stream` and hands it to `routes`; unparsable
/// connections (garbage bytes, an over-sized head or body) are dropped
/// without reaching the routes: they never became requests.
fn handle_connection<R: Routes>(
    stream: TcpStream,
    routes: &R,
    accepted: Instant,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_nodelay(true).ok();
    let Some(request) = read_request(&mut BufReader::new(stream.try_clone()?))? else {
        return Ok(());
    };
    routes.respond(request, stream, accepted, stop)
}

/// Answers an accepted connection with a typed 503 off the accept
/// thread: the socket still holds the client's unread request bytes, and
/// closing over them raises a RST that can destroy the 503 in flight.
/// Half-close and drain to EOF instead.
fn reject_connection(stream: TcpStream, kind: &'static str, reason: &'static str) {
    let _ = std::thread::Builder::new()
        .name("http-shed".to_string())
        .spawn(move || {
            let mut stream = stream;
            stream.set_nodelay(true).ok();
            let _ = write_response(
                &mut stream,
                "503 Service Unavailable",
                "application/json",
                &format!("{{\"type\":\"{kind}\",\"reason\":\"{reason}\"}}"),
                None,
            );
            let _ = stream.shutdown(std::net::Shutdown::Write);
            stream.set_read_timeout(Some(REQUEST_TIMEOUT)).ok();
            let mut sink = [0u8; 1024];
            while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
        });
}

/// Serves the shared telemetry routes (`GET /metrics`, `/snapshot`,
/// `/healthz`, `/events`, `/traces`, `/trace/...`, `/convergence[/sse]`)
/// for `request`, or returns `None` when the request doesn't match one —
/// the caller then applies its own routing. `stop` lets long-lived
/// streams notice server shutdown. When the caller assigned the request
/// an id (the policy daemon does), `request_id` is echoed back on every
/// response as an `X-Request-Id` header.
pub fn respond_telemetry(
    request: &HttpRequest,
    mut stream: TcpStream,
    telemetry: &Telemetry,
    stop: &AtomicBool,
    request_id: Option<&str>,
) -> Option<io::Result<()>> {
    if request.method != "GET" {
        return None;
    }
    const JSON: &str = "application/json";
    const OK: &str = "200 OK";
    let (status, content_type, body) = match request.path.as_str() {
        "/metrics" => (
            OK,
            "text/plain; version=0.0.4; charset=utf-8",
            telemetry
                .snapshot()
                .map(|snap| render_prometheus(&snap))
                .unwrap_or_default(),
        ),
        "/snapshot" => (
            OK,
            JSON,
            telemetry
                .snapshot()
                .map(|snap| snapshot_to_json(&snap))
                .unwrap_or_else(|| "{\"type\":\"snapshot\"}".to_string()),
        ),
        "/healthz" => (
            OK,
            JSON,
            telemetry
                .health()
                .map(|h| h.snapshot())
                .unwrap_or_default()
                .to_json(),
        ),
        "/events" => return Some(stream_bus(stream, telemetry, stop, None, false)),
        "/convergence" | "/convergence/sse" => {
            let sse = request.path.ends_with("/sse");
            let filter = Some(CONVERGENCE_PREFIX);
            return Some(stream_bus(stream, telemetry, stop, filter, sse));
        }
        "/traces" => {
            let mut body = String::from("{\"type\":\"traces\",\"traces\":[");
            for (i, tree) in telemetry.trace_trees().iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                use std::fmt::Write as _;
                let _ = write!(body, "{{\"trace\":{},\"root\":", tree.trace);
                crate::event::write_json_str(&mut body, &tree.root.name);
                let _ = write!(
                    body,
                    ",\"spans\":{},\"ms\":{:?}}}",
                    tree.span_count(),
                    tree.root.ms
                );
            }
            body.push_str("]}");
            (OK, JSON, body)
        }
        "/trace/last" => match telemetry.last_trace() {
            Some(tree) => (OK, JSON, tree.to_json()),
            None => (
                "404 Not Found",
                JSON,
                "{\"type\":\"error\",\"reason\":\"no_traces\"}".to_string(),
            ),
        },
        path => {
            let spec = path.strip_prefix("/trace/")?;
            let (id_part, profile) = match spec.strip_suffix("/profile") {
                Some(id_part) => (id_part, true),
                None => (spec, false),
            };
            // Request ids are `req-<trace>`; accept both spellings.
            let id = id_part
                .strip_prefix("req-")
                .unwrap_or(id_part)
                .parse::<u64>()
                .ok()?;
            match telemetry.trace_tree(id) {
                Some(tree) if profile => (OK, "text/plain; charset=utf-8", tree.profile_text()),
                Some(tree) => (OK, JSON, tree.to_json()),
                None => (
                    "404 Not Found",
                    JSON,
                    "{\"type\":\"error\",\"reason\":\"unknown_trace\"}".to_string(),
                ),
            }
        }
    };
    Some(write_response(
        &mut stream,
        status,
        content_type,
        &body,
        request_id,
    ))
}

/// Reads one request — request line, headers, and a `Content-Length`
/// body — and returns it, or `None` for anything unparsable or
/// over-sized. The head is read through a [`MAX_HEADER_BYTES`] limit, so
/// a client that never sends a newline cannot grow a line buffer past
/// it; the body is bounded by [`MAX_BODY_BYTES`].
fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<HttpRequest>> {
    let mut head = reader.by_ref().take(MAX_HEADER_BYTES as u64);
    let mut request_line = String::new();
    if matches!(head_line(&mut head, &mut request_line)?, None | Some(0)) {
        return Ok(None);
    }
    // Drain the header block so the client never sees a reset while the
    // request is still in flight, scanning for Content-Length.
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        match head_line(&mut head, &mut header)? {
            None => return Ok(None),
            Some(0) => break,
            Some(_) if header == "\r\n" || header == "\n" => break,
            Some(_) => {}
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse::<usize>() {
                    Ok(n) if n <= MAX_BODY_BYTES => n,
                    _ => return Ok(None),
                };
            }
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return Ok(None),
    };
    let path = target.split('?').next().unwrap_or(target);
    let mut body = vec![0u8; content_length];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return Ok(None);
    }
    Ok(Some(HttpRequest {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        body,
    }))
}

/// Reads one head line into `line`, returning its length (`0` at EOF),
/// or `None` when the head limit cut the line short.
fn head_line<R: BufRead>(head: &mut io::Take<R>, line: &mut String) -> io::Result<Option<usize>> {
    let n = head.read_line(line)?;
    Ok((line.ends_with('\n') || head.limit() > 0).then_some(n))
}

/// Writes one `Connection: close` HTTP response, stamped with an
/// `X-Request-Id` header when the caller assigned the request an id.
///
/// # Errors
///
/// Propagates the underlying socket write error (callers treat a failed
/// write as a disconnected client).
pub fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
    request_id: Option<&str>,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if let Some(rid) = request_id {
        head.push_str(&format!("X-Request-Id: {rid}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Serialized-line prefix of `convergence` events — [`crate::Event`]
/// writes `"type"` first, so a stream can filter without parsing.
const CONVERGENCE_PREFIX: &str = "{\"type\":\"convergence\"";

/// Streams events off the bus until the bus closes, the client
/// disconnects, or the server shuts down.
///
/// With `filter: None` this is the `/events` NDJSON stream: every bus
/// line, preceded by a health-record hello so late subscribers know
/// where the loop stands. With a filter prefix only matching lines are
/// forwarded (no hello — the stream then carries exactly one event
/// shape, e.g. `/convergence`). With `sse: true`, lines are framed as
/// Server-Sent Events (`data: <line>\n\n`, `text/event-stream`).
fn stream_bus(
    mut stream: TcpStream,
    telemetry: &Telemetry,
    stop: &AtomicBool,
    filter: Option<&str>,
    sse: bool,
) -> io::Result<()> {
    let Some(bus) = telemetry.bus() else {
        return write_response(
            &mut stream,
            "503 Service Unavailable",
            "text/plain; charset=utf-8",
            "no event bus attached (is --metrics-listen set?)\n",
            None,
        );
    };
    let subscription = bus.subscribe();
    let content_type = if sse {
        "text/event-stream"
    } else {
        "application/x-ndjson"
    };
    stream.write_all(
        format!("HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n")
            .as_bytes(),
    )?;
    if filter.is_none() && !sse {
        if let Some(health) = telemetry.health() {
            stream.write_all(health.snapshot().to_json().as_bytes())?;
            stream.write_all(b"\n")?;
        }
    }
    stream.flush()?;
    loop {
        match subscription.recv_timeout(EVENT_POLL) {
            Some(line) => {
                if let Some(prefix) = filter {
                    if !line.starts_with(prefix) {
                        continue;
                    }
                }
                if sse {
                    stream.write_all(b"data: ")?;
                }
                stream.write_all(line.as_bytes())?;
                stream.write_all(if sse {
                    b"\n\n".as_slice()
                } else {
                    b"\n".as_slice()
                })?;
                stream.flush()?;
            }
            None => {
                if stop.load(Ordering::SeqCst)
                    || (subscription.is_closed() && subscription.lag() == 0)
                {
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventBus, JsonlSink};

    /// Blocking one-shot HTTP GET against the test server.
    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("header block");
        (head.to_string(), body.to_string())
    }

    fn test_telemetry() -> Telemetry {
        let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
        telemetry
            .registry()
            .unwrap()
            .counter("loop.fallbacks")
            .add(2);
        telemetry
            .registry()
            .unwrap()
            .gauge("train.temperature")
            .set(1.5);
        telemetry
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let telemetry = test_telemetry();
        let server = HttpServer::metrics("127.0.0.1:0", telemetry).expect("bind");
        let (head, body) = http_get(server.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("autorecover_loop_fallbacks 2\n"), "{body}");
        assert!(
            body.contains("autorecover_train_temperature 1.5\n"),
            "{body}"
        );
    }

    #[test]
    fn snapshot_and_healthz_serve_json() {
        let telemetry = test_telemetry();
        telemetry.health().unwrap().begin_loop(3);
        telemetry
            .health()
            .unwrap()
            .record_window(1, "trained", None);
        let server = HttpServer::metrics("127.0.0.1:0", telemetry).expect("bind");
        let (head, body) = http_get(server.local_addr(), "/snapshot");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.starts_with("{\"type\":\"snapshot\""), "{body}");
        assert!(body.contains("\"loop.fallbacks\":2"), "{body}");
        let (_, body) = http_get(server.local_addr(), "/healthz");
        assert!(body.contains("\"phase\":\"running\""), "{body}");
        assert!(body.contains("\"last_window\":1"), "{body}");
    }

    #[test]
    fn unknown_routes_get_404_and_post_is_dropped() {
        let server = HttpServer::metrics("127.0.0.1:0", test_telemetry()).expect("bind");
        let (head, _) = http_get(server.local_addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.is_empty(), "non-GET must be dropped, got {out:?}");
    }

    #[test]
    fn read_request_parses_method_path_and_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(
                stream,
                "POST /advise?x=1 HTTP/1.1\r\nHost: test\r\nContent-Length: 9\r\n\r\n{{\"a\":\"b\"}}"
            )
            .unwrap();
            stream.flush().unwrap();
            // Keep the socket open until the server side has read.
            let mut buf = [0u8; 1];
            let _ = stream.read(&mut buf);
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let request = read_request(&mut reader).unwrap().expect("parsable");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/advise", "query must be stripped");
        assert_eq!(request.body_text(), Some("{\"a\":\"b\"}"));
        // The reader holds a clone of the socket; both halves must drop
        // before the client sees EOF.
        drop(reader);
        drop(stream);
        client.join().unwrap();
    }

    #[test]
    fn read_request_rejects_oversized_bodies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(
                stream,
                "POST /advise HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .unwrap();
            stream.flush().unwrap();
            let mut buf = [0u8; 1];
            let _ = stream.read(&mut buf);
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(read_request(&mut reader).unwrap(), None);
        drop(reader);
        drop(stream);
        client.join().unwrap();
    }

    #[test]
    fn read_request_rejects_a_head_over_the_bound() {
        let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9 * 1024));
        assert_eq!(read_request(&mut long_path.as_bytes()).unwrap(), None);
        let long_header = format!(
            "GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "b".repeat(MAX_HEADER_BYTES)
        );
        assert_eq!(read_request(&mut long_header.as_bytes()).unwrap(), None);
        // A head just under the bound still parses.
        let fits = format!(
            "GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "c".repeat(MAX_HEADER_BYTES - 64)
        );
        let request = read_request(&mut fits.as_bytes())
            .unwrap()
            .expect("parsable");
        assert_eq!(request.path, "/metrics");
    }

    #[test]
    fn sequential_requests_are_not_paced_by_the_accept_loop() {
        let server = HttpServer::metrics("127.0.0.1:0", test_telemetry()).expect("bind");
        let started = Instant::now();
        for _ in 0..40 {
            let (head, _) = http_get(server.local_addr(), "/healthz");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(500),
            "40 requests took {elapsed:?}"
        );
    }

    /// Drops `server` on another thread and fails unless that finishes
    /// within one second.
    fn assert_drops_promptly(server: HttpServer) {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(server);
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(1))
            .expect("the accept thread was not woken within 1 s");
    }

    #[test]
    fn servers_on_unspecified_addresses_stop_promptly() {
        assert_drops_promptly(HttpServer::metrics("0.0.0.0:0", test_telemetry()).expect("bind"));
        let server = HttpServer::metrics("0.0.0.0:0", test_telemetry()).expect("bind");
        assert!(server.drain(Duration::from_secs(1)), "idle drain timed out");
        assert_drops_promptly(server);
    }

    #[test]
    fn telemetry_routes_shed_over_the_bound_and_touch_no_counter() {
        let telemetry = test_telemetry();
        let before = snapshot_to_json(&telemetry.snapshot().unwrap());
        let server =
            HttpServer::bind("127.0.0.1:0", 1, TelemetryRoutes(telemetry.clone())).expect("bind");
        // An open /events stream holds the only slot until the bus closes.
        let mut held = TcpStream::connect(server.local_addr()).unwrap();
        write!(held, "GET /events HTTP/1.1\r\n\r\n").unwrap();
        let mut first = [0u8; 1];
        held.read_exact(&mut first).unwrap();
        let (head, body) = http_get(server.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert_eq!(body, "{\"type\":\"shed\",\"reason\":\"overloaded\"}");
        telemetry.bus().unwrap().close();
        let mut rest = String::new();
        held.read_to_string(&mut rest).unwrap();
        assert!(server.drain(Duration::from_secs(5)), "drain timed out");
        assert_eq!(server.inflight(), 0);
        assert_eq!(snapshot_to_json(&telemetry.snapshot().unwrap()), before);
    }

    #[test]
    fn events_stream_delivers_published_lines_until_close() {
        let telemetry = test_telemetry();
        let server = HttpServer::metrics("127.0.0.1:0", telemetry.clone()).expect("bind");
        let addr = server.local_addr();
        let reader = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET /events HTTP/1.1\r\n\r\n").unwrap();
            let mut lines = Vec::new();
            // Read until EOF (server closes once the bus drains); skip
            // the blank line separating headers from the body.
            for line in BufReader::new(stream).lines() {
                match line {
                    Ok(l) => {
                        if !l.is_empty() {
                            lines.push(l);
                        }
                    }
                    Err(_) => break,
                }
            }
            lines
        });
        // Give the subscriber a moment to attach, then publish and close.
        let bus = telemetry.bus().unwrap().clone();
        while !bus.has_subscribers() {
            std::thread::sleep(Duration::from_millis(5));
        }
        telemetry.emit(&crate::Event::new("window").with("window", 0u64));
        bus.close();
        let lines = reader.join().unwrap();
        // Headers, then the health hello, then the published event.
        let body_start = lines
            .iter()
            .position(|l| l.starts_with('{'))
            .expect("json lines present");
        assert!(
            lines[body_start].starts_with("{\"type\":\"health\""),
            "{lines:?}"
        );
        assert!(
            lines[body_start + 1..]
                .iter()
                .any(|l| l.starts_with("{\"type\":\"window\"")),
            "{lines:?}"
        );
    }

    #[test]
    fn trace_endpoints_serve_finished_trees_and_typed_404s() {
        let telemetry = test_telemetry();
        {
            let _root = telemetry.span("request");
            let _child = telemetry.span("advise");
        }
        let trace = telemetry.last_trace().expect("finished").trace;
        let server = HttpServer::metrics("127.0.0.1:0", telemetry).expect("bind");
        let addr = server.local_addr();
        let (head, body) = http_get(addr, &format!("/trace/{trace}"));
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(
            body.starts_with(&format!(
                "{{\"type\":\"trace_tree\",\"trace\":{trace},\"spans\":2,"
            )),
            "{body}"
        );
        assert!(body.contains("\"name\":\"advise\""), "{body}");
        // The req- prefixed spelling (what X-Request-Id carries) works.
        let (head, _) = http_get(addr, &format!("/trace/req-{trace}"));
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let (head, body) = http_get(addr, &format!("/trace/{trace}/profile"));
        assert!(head.contains("text/plain"), "{head}");
        assert!(body.contains("request"), "{body}");
        assert!(body.contains("advise"), "{body}");
        let (_, body) = http_get(addr, "/trace/last");
        assert!(
            body.contains("\"root\":{\"id\":1,\"name\":\"request\""),
            "{body}"
        );
        let (_, body) = http_get(addr, "/traces");
        assert!(body.starts_with("{\"type\":\"traces\""), "{body}");
        assert!(body.contains("\"root\":\"request\""), "{body}");
        let (head, body) = http_get(addr, "/trace/999999");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert_eq!(body, "{\"type\":\"error\",\"reason\":\"unknown_trace\"}");
        // Garbage ids fall through to the generic 404.
        let (head, _) = http_get(addr, "/trace/not-a-number");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    #[test]
    fn convergence_stream_filters_to_convergence_events_only() {
        let telemetry = test_telemetry();
        let server = HttpServer::metrics("127.0.0.1:0", telemetry.clone()).expect("bind");
        let addr = server.local_addr();
        let reader = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET /convergence HTTP/1.1\r\n\r\n").unwrap();
            let mut lines = Vec::new();
            for line in BufReader::new(stream).lines() {
                match line {
                    Ok(l) if !l.is_empty() => lines.push(l),
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            lines
        });
        let bus = telemetry.bus().unwrap().clone();
        while !bus.has_subscribers() {
            std::thread::sleep(Duration::from_millis(5));
        }
        telemetry.emit(&crate::Event::new("window").with("window", 0u64));
        telemetry.emit(
            &crate::Event::new("convergence")
                .with("window", 0u64)
                .with("error_type", "type3")
                .with("verdict", "converged"),
        );
        bus.close();
        let lines = reader.join().unwrap();
        let body: Vec<&String> = lines.iter().filter(|l| l.starts_with('{')).collect();
        assert_eq!(body.len(), 1, "only the convergence event: {lines:?}");
        assert!(
            body[0].starts_with("{\"type\":\"convergence\",\"window\":0"),
            "{lines:?}"
        );
    }

    #[test]
    fn sse_stream_frames_convergence_lines_as_events() {
        let telemetry = test_telemetry();
        let server = HttpServer::metrics("127.0.0.1:0", telemetry.clone()).expect("bind");
        let addr = server.local_addr();
        let reader = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET /convergence/sse HTTP/1.1\r\n\r\n").unwrap();
            let mut out = String::new();
            let _ = stream.read_to_string(&mut out);
            out
        });
        let bus = telemetry.bus().unwrap().clone();
        while !bus.has_subscribers() {
            std::thread::sleep(Duration::from_millis(5));
        }
        telemetry.emit(&crate::Event::new("convergence").with("window", 1u64));
        bus.close();
        let out = reader.join().unwrap();
        assert!(out.contains("Content-Type: text/event-stream"), "{out}");
        assert!(
            out.contains("data: {\"type\":\"convergence\",\"window\":1}\n\n"),
            "{out}"
        );
    }

    #[test]
    fn responses_echo_an_assigned_request_id() {
        let telemetry = test_telemetry();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut out = String::new();
            stream.read_to_string(&mut out).unwrap();
            out
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let request = read_request(&mut reader).unwrap().expect("parsable");
        let stop = AtomicBool::new(false);
        respond_telemetry(&request, stream, &telemetry, &stop, Some("req-7"))
            .expect("telemetry route")
            .expect("write ok");
        // Both socket clones must drop before the client sees EOF.
        drop(reader);
        let out = client.join().unwrap();
        assert!(out.contains("X-Request-Id: req-7\r\n"), "{out}");
    }

    #[test]
    fn events_without_a_bus_get_503() {
        let telemetry =
            Telemetry::with_parts(Some(JsonlSink::from_writer(Box::new(io::sink()))), None);
        let server = HttpServer::metrics("127.0.0.1:0", telemetry).expect("bind");
        let (head, body) = http_get(server.local_addr(), "/events");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(body.contains("no event bus"), "{body}");
    }
}
