//! The TCP serving loop for `ndet serve`.
//!
//! One thread accepts connections with a blocking `accept`; each
//! connection gets a thread that reads request lines and executes them
//! through the shared [`Engine`]. Accepted sockets set `TCP_NODELAY`,
//! so each reply frame leaves as soon as it is flushed instead of
//! waiting on Nagle's algorithm and the peer's delayed ACK. Each
//! request runs on its own job thread bounded by a
//! deadline: a request that overruns gets an `err timeout` reply and
//! its job thread is left to finish in the background (a retry joins
//! the engine's still-running build rather than starting another).
//!
//! Shutdown (SIGINT/SIGTERM or [`crate::signal::request_shutdown`]) is
//! a drain, not an abort. A blocked `accept` cannot see the drain
//! flags, so a small waker thread checks them every 100 ms and, once a
//! drain starts, wakes the accept with one loopback connect. The accept
//! loop then stops taking new
//! connections, in-progress connections finish their current request
//! (new requests on them get `err shutdown`), and the server joins
//! every connection thread plus any stragglers before returning — so a
//! supervisor sending SIGTERM observes a clean exit 0 with no truncated
//! replies.

use crate::engine::Engine;
use crate::protocol::{self, ChaosCommand, ErrorReply, Request};
use crate::render::{self, Subject};
use crate::signal;
use ndetect_obs::trace;
use ndetect_seq::FaultModel;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How often blocked reads and the accept waker re-check the drain
/// flags. Bounds shutdown latency, not correctness.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Server configuration (`ndet serve` flags).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Per-request deadline; an overrunning job gets `err timeout`.
    pub request_timeout: Duration,
    /// Hot-LRU capacity for fault universes, and separately for their
    /// worst-case results (entries).
    pub hot_universes: usize,
    /// Hot-LRU capacity for generated sets (entries).
    pub hot_sets: usize,
    /// Maximum concurrent connections; an accept beyond the cap gets a
    /// one-line `err busy` reply and is closed (counted as
    /// `requests_rejected`).
    pub max_conns: usize,
    /// Whether the `chaos` verb (failpoint control) is enabled. Off by
    /// default — fault injection over the wire is a debug facility, so
    /// it must be opted into per server (`ndet serve --chaos`).
    pub chaos: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            request_timeout: Duration::from_secs(60),
            hot_universes: 32,
            hot_sets: 32,
            max_conns: 256,
            chaos: false,
        }
    }
}

/// Counts detached job threads (timed-out requests still running) so
/// shutdown can wait for them instead of racing process exit.
#[derive(Default)]
struct WaitGroup {
    count: Mutex<u64>,
    zero: Condvar,
}

impl WaitGroup {
    fn add(&self) {
        *self.count.lock().expect("waitgroup") += 1;
    }

    fn done(&self) {
        let mut count = self.count.lock().expect("waitgroup");
        *count -= 1;
        if *count == 0 {
            self.zero.notify_all();
        }
    }

    fn wait(&self) {
        let mut count = self.count.lock().expect("waitgroup");
        while *count > 0 {
            count = self.zero.wait(count).expect("waitgroup");
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
    config: ServerConfig,
    /// Per-server drain flag; the process-wide signal flag
    /// ([`signal::requested`]) ORs into it, so tests can stop one
    /// server without stopping every server in the process.
    shutdown: Arc<AtomicBool>,
}

/// Requests a drain of one specific server (cloneable, thread-safe).
#[derive(Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Asks the server to stop accepting and drain.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

impl Server {
    /// Binds the listen socket and builds the shared engine.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when the address cannot be bound.
    pub fn bind(config: ServerConfig, engine: Engine) -> Result<Self, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        Ok(Server {
            listener,
            engine: Arc::new(engine),
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// A handle that drains this server (and only this server).
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// The actually-bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket's `local_addr` failure as a message.
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// A handle to the shared engine (tests inspect counters).
    #[must_use]
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// Runs the accept loop until shutdown is requested, then drains:
    /// joins every connection thread and every detached job thread.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message on socket configuration failures;
    /// per-connection I/O errors only end that connection.
    pub fn run(self) -> Result<(), String> {
        let stragglers = Arc::new(WaitGroup::default());
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let accepting = Arc::new(AtomicBool::new(true));
        let waker = spawn_waker(
            loopback(self.local_addr()?),
            Arc::clone(&self.shutdown),
            Arc::clone(&accepting),
        );
        let accepted = self.accept_loop(&mut connections, &stragglers);
        accepting.store(false, Ordering::SeqCst);
        waker.join().expect("the accept waker does not panic");
        accepted?;

        // Drain: connections notice the flag via their read timeouts
        // and return after at most one in-flight request each.
        for handle in connections {
            let _ = handle.join();
        }
        stragglers.wait();
        Ok(())
    }

    /// Accepts connections until a drain starts. The accept that
    /// returns during a drain (normally the waker's) is dropped unserved.
    fn accept_loop(
        &self,
        connections: &mut Vec<std::thread::JoinHandle<()>>,
        stragglers: &Arc<WaitGroup>,
    ) -> Result<(), String> {
        loop {
            let accepted = self.listener.accept();
            if draining(&self.shutdown) {
                return Ok(());
            }
            match accepted {
                Ok((stream, _peer)) => {
                    // Reap before counting so finished connections do
                    // not hold slots against the cap.
                    connections.retain(|h| !h.is_finished());
                    if connections.len() >= self.config.max_conns {
                        self.engine.counters().rejected.inc();
                        let mut writer = BufWriter::new(&stream);
                        let _ = protocol::write_err(
                            &mut writer,
                            &ErrorReply {
                                code: "busy",
                                message: format!(
                                    "connection limit {} reached; retry later",
                                    self.config.max_conns
                                ),
                            },
                        );
                        continue;
                    }
                    let engine = Arc::clone(&self.engine);
                    let config = self.config.clone();
                    let stragglers = Arc::clone(stragglers);
                    let shutdown = Arc::clone(&self.shutdown);
                    connections.push(std::thread::spawn(move || {
                        // A broken peer only ends this connection.
                        let _ = serve_connection(&stream, &engine, &config, &stragglers, &shutdown);
                    }));
                }
                Err(e) => return Err(format!("accept failed: {e}")),
            }
            // Reap finished connection threads so a long-lived server
            // does not accumulate handles.
            connections.retain(|h| !h.is_finished());
        }
    }
}

/// Whether a drain was requested, process-wide (a signal) or for this
/// server.
fn draining(shutdown: &AtomicBool) -> bool {
    signal::requested() || shutdown.load(Ordering::SeqCst)
}

/// The address the waker connects to: the listener's own, with an
/// unspecified (wildcard) IP replaced by loopback.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// Spawns the thread that wakes the blocking `accept` once a drain
/// starts: it checks the drain flags every [`POLL_INTERVAL`] and then
/// connects to `addr` once. A failed connect is retried on the next
/// tick; the thread also ends when `accepting` goes false.
fn spawn_waker(
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accepting: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while accepting.load(Ordering::SeqCst) {
            if draining(&shutdown) && TcpStream::connect_timeout(&addr, POLL_INTERVAL).is_ok() {
                return;
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    })
}

/// Per-connection socket set-up: `TCP_NODELAY`, so every flushed frame
/// goes out at once, and a read timeout of [`POLL_INTERVAL`], which
/// doubles as the drain poll of a connection blocked in `read_line`.
fn configure_connection(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))
}

/// Reads request lines off one connection until EOF or shutdown.
fn serve_connection(
    stream: &TcpStream,
    engine: &Arc<Engine>,
    config: &ServerConfig,
    stragglers: &Arc<WaitGroup>,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    configure_connection(stream)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut line = String::new();

    loop {
        line.clear();
        // A timed-out read may leave a partial line in `line`; keep
        // appending until the newline arrives.
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return Ok(()), // EOF: client closed
                Ok(_) if line.ends_with('\n') => break,
                Ok(_) => {} // partial line, keep reading
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if draining(shutdown) {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if line.trim().is_empty() {
            continue; // blank lines keep the connection alive
        }
        if draining(shutdown) {
            protocol::write_err(
                &mut writer,
                &ErrorReply {
                    code: "shutdown",
                    message: "server is draining".to_string(),
                },
            )?;
            return Ok(());
        }
        execute_line(&line, engine, config, stragglers, &mut writer)?;
    }
}

/// Parses and executes one request line, writing exactly one reply.
/// Every request is traced (`serve.request` with `serve.parse` /
/// `serve.execute` / `serve.write` children) and its wall time up to the
/// terminal frame recorded into the engine's `request_latency_us`
/// histogram. The record comes before that frame is written, so a
/// client holding the reply finds the request in its next `metrics`.
fn execute_line(
    line: &str,
    engine: &Arc<Engine>,
    config: &ServerConfig,
    stragglers: &Arc<WaitGroup>,
    writer: &mut impl Write,
) -> io::Result<()> {
    let started = std::time::Instant::now();
    let mut request_span = trace::span("serve.request");
    let terminal = execute_line_traced(line, engine, config, stragglers, writer, &mut request_span);
    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    engine.record_request_latency_us(micros);
    match terminal? {
        Ok(payload) => write_ok_traced(writer, &payload),
        Err(error) => protocol::write_err(writer, &error),
    }
}

/// Executes one request line, streaming any `row` frames, and returns
/// the terminal reply for the caller to write.
fn execute_line_traced(
    line: &str,
    engine: &Arc<Engine>,
    config: &ServerConfig,
    stragglers: &Arc<WaitGroup>,
    writer: &mut impl Write,
    request_span: &mut trace::Span,
) -> io::Result<Result<String, ErrorReply>> {
    engine.counters().requests.inc();
    let parsed = {
        let _parse_span = trace::span("serve.parse");
        Request::parse(line)
    };
    let request = match parsed {
        Ok(request) => request,
        Err(error) => {
            request_span.field("outcome", "parse_error");
            engine.counters().errors.inc();
            return Ok(Err(error));
        }
    };
    request_span.field("verb", line.split_whitespace().next().unwrap_or(""));

    // Instant requests answer inline; analysis requests get a bounded
    // job thread.
    match request {
        Request::Ping => {
            request_span.field("outcome", "ok");
            return Ok(Ok("pong\n".to_string()));
        }
        Request::Metrics => {
            let payload = engine.render_metrics();
            request_span.field("outcome", "ok");
            return Ok(Ok(payload));
        }
        Request::Chaos(ref command) => {
            if !config.chaos {
                request_span.field("outcome", "denied");
                engine.counters().errors.inc();
                return Ok(Err(ErrorReply::denied(
                    "chaos verb disabled; start the server with --chaos",
                )));
            }
            let reply = execute_chaos(command);
            if reply.is_ok() {
                request_span.field("outcome", "ok");
            } else {
                request_span.field("outcome", "parse_error");
                engine.counters().errors.inc();
            }
            return Ok(reply);
        }
        _ => {}
    }

    let (sender, receiver) = mpsc::channel::<JobEvent>();
    let job_engine = Arc::clone(engine);
    let job_stragglers = Arc::clone(stragglers);
    let parent_span = request_span.id();
    stragglers.add();
    std::thread::spawn(move || {
        // The job runs on its own thread; parent the execute span (and
        // transitively the engine's flight/build spans) explicitly so
        // the trace still nests under this request.
        let exec_span = trace::span_under("serve.execute", parent_span);
        let rows = sender.clone();
        let result = run_job(&request, &job_engine, &mut |chunk: &str| {
            // The receiver may have timed out; the job keeps going
            // (callers joined to its build want it to finish).
            let _ = rows.send(JobEvent::Row(chunk.to_string()));
        });
        drop(exec_span);
        let _ = sender.send(JobEvent::Done(result));
        job_stragglers.done();
    });

    // One fixed deadline for the whole job: incremental rows are
    // flushed as they arrive, but they do not extend the budget.
    let deadline = std::time::Instant::now() + config.request_timeout;
    loop {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        match receiver.recv_timeout(remaining) {
            Ok(JobEvent::Row(chunk)) => write_row_traced(writer, &chunk)?,
            Ok(JobEvent::Done(Ok(payload))) => {
                request_span.field("outcome", "ok");
                return Ok(Ok(payload));
            }
            Ok(JobEvent::Done(Err(error))) => {
                request_span.field("outcome", error.code);
                engine.counters().errors.inc();
                return Ok(Err(error));
            }
            Err(_) => {
                request_span.field("outcome", "timeout");
                engine.counters().errors.inc();
                return Ok(Err(ErrorReply {
                    code: "timeout",
                    message: format!(
                        "request exceeded {}ms (still building; retry joins it)",
                        config.request_timeout.as_millis()
                    ),
                }));
            }
        }
    }
}

/// What a job thread sends back: zero or more incremental body chunks,
/// then exactly one terminal result.
enum JobEvent {
    /// An incremental chunk to stream as a `row` frame.
    Row(String),
    /// The job finished (the terminal reply).
    Done(Result<String, ErrorReply>),
}

/// Writes an `ok` reply under a `serve.write` span (the tail of the
/// request lifecycle: the bytes going back out on the socket).
fn write_ok_traced(writer: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut span = trace::span("serve.write");
    span.field("bytes", payload.len());
    protocol::write_ok(writer, payload)
}

/// Writes one incremental `row` frame under a `serve.write` span.
fn write_row_traced(writer: &mut impl Write, chunk: &str) -> io::Result<()> {
    let mut span = trace::span("serve.write");
    span.field("row_bytes", chunk.len());
    protocol::write_row(writer, chunk)
}

/// Executes a `chaos` sub-command (the server already checked the
/// `--chaos` gate).
fn execute_chaos(command: &ChaosCommand) -> Result<String, ErrorReply> {
    match command {
        ChaosCommand::Set { site, spec } => {
            ndetect_chaos::arm(site, spec).map_err(ErrorReply::parse)?;
            Ok(format!("armed {site}={spec}\n"))
        }
        ChaosCommand::List => {
            let sites = ndetect_chaos::list();
            if sites.is_empty() {
                return Ok("no failpoints registered\n".to_string());
            }
            let mut out = String::new();
            use std::fmt::Write as _;
            for site in sites {
                let _ = writeln!(
                    out,
                    "{} {} hits={} fired={}",
                    site.name, site.spec, site.hits, site.fired
                );
            }
            Ok(out)
        }
        ChaosCommand::Clear => {
            ndetect_chaos::disarm_all();
            Ok("cleared\n".to_string())
        }
    }
}

/// Runs one analysis job with panic isolation: a panicking build (a
/// bug, or an armed `panic` failpoint) is caught, counted
/// (`panics_caught_total`), and converted to a structured `err
/// internal` reply — the job thread, its connection, and the server all
/// survive. The engine guarantees that any waiters on the panicked
/// build observe the poisoning and rebuild fresh, so a client retry
/// after `err internal` succeeds.
fn run_job(
    request: &Request,
    engine: &Arc<Engine>,
    emit: &mut (dyn FnMut(&str) + Send),
) -> Result<String, ErrorReply> {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Chaos hook inside the catch_unwind, so its `panic` action
        // exercises exactly the isolation path a real bug would.
        if ndetect_chaos::failpoint!("serve.job").is_some() {
            return Err("failpoint `serve.job`: injected error".to_string());
        }
        execute_request(request, engine, emit)
    }));
    match caught {
        Ok(Ok(payload)) => Ok(payload),
        Ok(Err(message)) => Err(ErrorReply::analysis(message)),
        Err(panic) => {
            engine.counters().panics_caught.inc();
            Err(ErrorReply::internal(format!(
                "job panicked: {}; the server is healthy and a retry is safe",
                panic_message(&panic)
            )))
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Executes a parsed analysis request against the engine, returning the
/// reply payload (byte-identical to the one-shot CLI's stdout).
/// Incremental body chunks (corpus rows) go out through `emit`.
fn execute_request(
    request: &Request,
    engine: &Arc<Engine>,
    emit: &mut dyn FnMut(&str),
) -> Result<String, String> {
    match request {
        Request::Stats {
            circuit,
            model,
            knobs,
        } => subject(engine, circuit, model)?.stats(*knobs, engine),
        Request::Worst {
            circuit,
            floor,
            model,
            knobs,
        } => subject(engine, circuit, model)?.worst(*floor, *knobs, engine),
        Request::Gen {
            circuit,
            n,
            compact,
            seed,
            model,
            knobs,
        } => subject(engine, circuit, model)?.gen(*n, *compact, *seed, *knobs, engine),
        Request::Corpus { request, knobs } => {
            // Stream the body incrementally: each row goes out as a
            // `row` frame the moment its analysis completes; the
            // terminal payload carries the closing bytes plus per-file
            // diagnostics (serve mode has no stderr channel back to the
            // client; both CSV and JSON consumers skip `#` lines).
            let tail = render::render_corpus_stream(request, *knobs, engine.as_ref(), emit)?;
            let mut payload = tail.trailer;
            for error in &tail.errors {
                payload.push_str(&format!("# corpus error: {error}\n"));
            }
            Ok(payload)
        }
        Request::Sleep { ms } => {
            std::thread::sleep(Duration::from_millis(*ms));
            Ok(format!("slept {ms}ms\n"))
        }
        Request::Ping | Request::Metrics | Request::Chaos(_) => {
            unreachable!("answered inline")
        }
    }
}

/// Resolves a request's circuit and `model=` token through the engine's
/// circuit memo. The token is checked on every request.
fn subject(engine: &Engine, circuit: &str, model: &Option<String>) -> Result<Subject, String> {
    let parse = |m: &str| {
        FaultModel::parse(m)
            .ok_or_else(|| format!("unknown fault model `{m}` (expected transition or stuck-at)"))
    };
    engine.resolve(circuit, model.as_deref().map(parse).transpose()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_reply, Reply};

    type Running = (
        std::net::SocketAddr,
        Arc<Engine>,
        ShutdownHandle,
        std::thread::JoinHandle<Result<(), String>>,
    );

    fn start(config: ServerConfig) -> Running {
        let server = Server::bind(config, Engine::new(None, 8, 8)).unwrap();
        let addr = server.local_addr().unwrap();
        let engine = server.engine();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run());
        (addr, engine, shutdown, handle)
    }

    fn request_line(addr: std::net::SocketAddr, line: &str) -> Reply {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream);
        read_reply(&mut reader).unwrap()
    }

    #[test]
    fn connection_setup_turns_off_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        configure_connection(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
        assert_eq!(accepted.read_timeout().unwrap(), Some(POLL_INTERVAL));
    }

    #[test]
    fn the_waker_dials_loopback_for_a_wildcard_bind() {
        let addr = |s: &str| s.parse::<SocketAddr>().unwrap();
        assert_eq!(loopback(addr("0.0.0.0:7433")), addr("127.0.0.1:7433"));
        assert_eq!(loopback(addr("[::]:7433")), addr("[::1]:7433"));
        assert_eq!(loopback(addr("10.0.0.5:7433")), addr("10.0.0.5:7433"));
    }

    #[test]
    fn ping_counters_and_errors_round_trip() {
        let (addr, _engine, shutdown, handle) = start(ServerConfig::default());
        assert_eq!(request_line(addr, "ping"), Reply::Ok("pong\n".to_string()));
        // The counters travel in the `metrics` exposition.
        let Reply::Ok(metrics) = request_line(addr, "metrics") else {
            panic!("expected the exposition");
        };
        assert!(metrics.contains("\nuniverse_builds 0\n"), "{metrics}");
        for unknown in ["frobnicate", "counters"] {
            let Reply::Err { code, .. } = request_line(addr, unknown) else {
                panic!("expected parse error for `{unknown}`");
            };
            assert_eq!(code, "parse");
        }
        let Reply::Err { code, .. } = request_line(addr, "stats not-a-circuit") else {
            panic!("expected analysis error");
        };
        assert_eq!(code, "analysis");
        shutdown.shutdown();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn analysis_replies_and_drain_are_clean() {
        let (addr, engine, shutdown, handle) = start(ServerConfig::default());
        let Reply::Ok(payload) = request_line(addr, "worst figure1") else {
            panic!("expected ok");
        };
        assert!(payload.contains("40.00% at n=1"), "{payload}");
        // Identical repeat: hot LRU answers, still exactly one build.
        let Reply::Ok(second) = request_line(addr, "worst figure1") else {
            panic!("expected ok");
        };
        assert_eq!(payload, second, "replies must be byte-identical");
        assert_eq!(engine.counters().universe_builds.get(), 1);
        shutdown.shutdown();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn timeout_yields_structured_error_and_drain_waits() {
        let config = ServerConfig {
            request_timeout: Duration::from_millis(20),
            ..ServerConfig::default()
        };
        let (addr, engine, shutdown, handle) = start(config);
        let Reply::Err { code, .. } = request_line(addr, "sleep ms=400") else {
            panic!("expected timeout");
        };
        assert_eq!(code, "timeout");
        let started = std::time::Instant::now();
        shutdown.shutdown();
        // Drain must wait for the detached sleep job before returning.
        handle.join().unwrap().unwrap();
        assert!(
            started.elapsed() >= Duration::from_millis(100),
            "drain returned before the straggler finished"
        );
        assert_eq!(engine.counters().errors.get(), 1);
    }

    #[test]
    fn connection_cap_rejects_with_busy() {
        let config = ServerConfig {
            max_conns: 1,
            ..ServerConfig::default()
        };
        let (addr, engine, shutdown, handle) = start(config);
        // Hold one connection (the cap) with a completed request so the
        // server has definitely accepted it.
        let held = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(held.try_clone().unwrap());
        writeln!(writer, "ping").unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(held.try_clone().unwrap());
        assert_eq!(read_reply(&mut reader).unwrap(), Reply::Ok("pong\n".into()));
        // The next connection must be turned away with `err busy`.
        let second = TcpStream::connect(addr).unwrap();
        let mut second_reader = BufReader::new(second);
        let Reply::Err { code, .. } = read_reply(&mut second_reader).unwrap() else {
            panic!("expected busy rejection");
        };
        assert_eq!(code, "busy");
        assert_eq!(engine.counters().rejected.get(), 1);
        shutdown.shutdown();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn seq_circuits_resolve_with_byte_identical_replies() {
        let (addr, engine, shutdown, handle) = start(ServerConfig::default());
        let expected = render::render_seq_worst(
            &ndetect_circuits::build_seq("s27").unwrap(),
            FaultModel::Transition,
            100,
            crate::render::Knobs::default(),
            &Engine::new(None, 0, 0),
        )
        .unwrap();
        let Reply::Ok(payload) = request_line(addr, "worst s27") else {
            panic!("expected ok");
        };
        assert_eq!(payload, expected, "serve reply must match one-shot render");
        assert!(payload.contains("s27 [transition]"), "{payload}");
        // An explicit model and a repeat both answer from the hot LRU.
        let Reply::Ok(second) = request_line(addr, "worst s27 model=transition") else {
            panic!("expected ok");
        };
        assert_eq!(payload, second);
        assert_eq!(engine.counters().universe_builds.get(), 1);
        // `model=` on a combinational circuit, and an unknown model, are
        // structured errors.
        let Reply::Err { code, message } = request_line(addr, "stats figure1 model=transition")
        else {
            panic!("expected analysis error");
        };
        assert_eq!(code, "analysis");
        assert!(message.contains("combinational"), "{message}");
        let Reply::Err { code, .. } = request_line(addr, "stats s27 model=bogus") else {
            panic!("expected analysis error");
        };
        assert_eq!(code, "analysis");
        shutdown.shutdown();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn corpus_replies_stream_row_frames() {
        let dir = std::env::temp_dir().join(format!("ndetect-serve-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("toggler.bench"),
            "INPUT(en)\nOUTPUT(po)\nq = DFF(nq)\nnq = NOT(q)\npo = AND(en, q)\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("tiny.bench"),
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n",
        )
        .unwrap();

        let (addr, _engine, shutdown, handle) = start(ServerConfig::default());
        let line = format!("corpus {} format=csv", dir.display());
        // Raw wire: the reply must arrive as incremental `row` frames
        // before the terminal `ok`.
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let mut first = String::new();
        std::io::BufRead::read_line(&mut reader, &mut first).unwrap();
        assert!(first.starts_with("row "), "expected a row frame: {first}");

        // And read through the protocol reader: the accumulated reply
        // must equal the one-shot corpus output (body + diagnostics).
        let Reply::Ok(payload) = request_line(addr, &line) else {
            panic!("expected ok");
        };
        let expected = render::render_corpus(
            &crate::render::CorpusRequest {
                dir: dir.clone(),
                format: "csv".into(),
                max_inputs: 14,
                recursive: false,
            },
            crate::render::Knobs::default(),
            &Engine::new(None, 0, 0),
        )
        .unwrap();
        assert!(expected.errors.is_empty(), "{:?}", expected.errors);
        assert_eq!(payload, expected.body);
        // The sequential file is classified, not error-rowed.
        assert!(payload.contains("toggler,seq,"), "{payload}");
        shutdown.shutdown();
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipelined_requests_on_one_connection() {
        let (addr, _engine, shutdown, handle) = start(ServerConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        write!(writer, "ping\nsleep ms=1\nping\n").unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream);
        assert_eq!(read_reply(&mut reader).unwrap(), Reply::Ok("pong\n".into()));
        assert_eq!(
            read_reply(&mut reader).unwrap(),
            Reply::Ok("slept 1ms\n".into())
        );
        assert_eq!(read_reply(&mut reader).unwrap(), Reply::Ok("pong\n".into()));
        shutdown.shutdown();
        handle.join().unwrap().unwrap();
    }
}
