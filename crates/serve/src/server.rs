//! Bounded acceptor + worker pool with admission control, load
//! shedding, per-connection deadlines, and graceful drain.
//!
//! Capacity model (DESIGN.md §12): at most `workers` requests are being
//! handled and at most `queue_depth` accepted connections are waiting;
//! everything past that is shed with `503` + `Retry-After` the moment
//! it is accepted. The acceptor itself never blocks on a client — shed
//! responses are written under the same write deadline as everything
//! else — so one slow or hostile peer cannot stall admission for the
//! rest.
//!
//! The acceptor parks in a blocking `accept()`, so it picks up each
//! connection the moment it arrives. [`ShutdownHandle::shutdown`] sets
//! the stop flag, then wakes the acceptor with one throwaway loopback
//! connection, which is dropped unanswered and uncounted.

use crate::http::{self, ParseError, Response};
use crate::Handler;
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server`]. The defaults suit an interactive query
/// service over a warm study; tests shrink them to force shedding and
/// timeouts quickly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Numeric listen address, `IP:PORT` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads handling requests concurrently.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker.
    pub queue_depth: usize,
    /// Per-connection budget for reading the request head.
    pub read_timeout_ms: u64,
    /// Per-connection budget for writing the response.
    pub write_timeout_ms: u64,
    /// Budget for finishing queued + in-flight work during drain.
    pub drain_deadline_ms: u64,
}

/// Byte cap on a request head (slowloris / huge-header defense).
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// `Retry-After` value, in seconds, sent with shed (`503`) responses.
const RETRY_AFTER_SECS: &str = "1";

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            workers: 4,
            queue_depth: 64,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            drain_deadline_ms: 5_000,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        let bad = |field: &str, message: String| {
            Err(ServeError::Config {
                field: format!("serve.{field}"),
                message,
            })
        };
        if self.workers == 0 {
            return bad("workers", "worker pool must have at least one thread".into());
        }
        if self.queue_depth == 0 {
            return bad("queue_depth", "admission queue must hold at least one connection".into());
        }
        if self.read_timeout_ms == 0 || self.write_timeout_ms == 0 {
            return bad("timeouts", "read/write deadlines must be nonzero".into());
        }
        Ok(())
    }
}

/// Why the server could not start (or keep) its socket. Maps onto the
/// workspace error taxonomy: `Config` is operator input (exit code 2),
/// `Io` is environment (exit code 1) — see DESIGN.md §6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Invalid configuration, e.g. a `--addr` that is not `IP:PORT`.
    Config {
        /// Which knob was invalid (`serve.addr`, `serve.workers`, …).
        field: String,
        /// What was wrong with it.
        message: String,
    },
    /// The OS refused a socket operation, e.g. `EADDRINUSE`.
    Io {
        /// The address involved.
        addr: String,
        /// The OS error text.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config { field, message } => write!(f, "{field}: {message}"),
            ServeError::Io { addr, message } => write!(f, "{addr}: {message}"),
        }
    }
}

/// Bound on the wake connection [`ShutdownHandle::shutdown`] opens. A
/// listener whose backlog is full may leave it unanswered, but then
/// `accept()` has queued connections to return anyway.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// Triggers a graceful drain from another thread (or a request
/// handler, via `/admin/drain`).
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    /// The bound address with an unspecified IP mapped to loopback: a
    /// connection here wakes an acceptor parked in `accept()`.
    wake: SocketAddr,
}

impl ShutdownHandle {
    fn new(local_addr: SocketAddr) -> ShutdownHandle {
        let mut wake = local_addr;
        if wake.ip().is_unspecified() {
            // `set_ip` within one family keeps an IPv6 scope id.
            wake.set_ip(match wake {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        ShutdownHandle {
            flag: Arc::new(AtomicBool::new(false)),
            wake,
        }
    }

    /// Ask the server to stop accepting and drain.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // The acceptor re-checks the flag whenever `accept()` returns.
        // Before `run()` the connection waits in the backlog; a refusal
        // means the listener is already gone.
        let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
    }

    /// Has a drain been requested?
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// What [`Server::run`] observed by the time it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// True when every worker finished inside `drain_deadline_ms`.
    pub drained: bool,
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Requests that got a handler response (any status).
    pub served: u64,
    /// Connections shed with `503` (admission or drain overflow).
    pub shed: u64,
}

/// `http.*` metric handles, resolved once per server, and the server's
/// own totals for its [`DrainReport`]: the registry is process-wide, so
/// its counters add up every server in the process.
struct Metrics {
    accepted: Arc<obs::metrics::Counter>,
    served: Arc<obs::metrics::Counter>,
    shed: Arc<obs::metrics::Counter>,
    timeouts: Arc<obs::metrics::Counter>,
    disconnects: Arc<obs::metrics::Counter>,
    malformed: Arc<obs::metrics::Counter>,
    too_large: Arc<obs::metrics::Counter>,
    panics: Arc<obs::metrics::Counter>,
    class_2xx: Arc<obs::metrics::Counter>,
    class_3xx: Arc<obs::metrics::Counter>,
    class_4xx: Arc<obs::metrics::Counter>,
    class_5xx: Arc<obs::metrics::Counter>,
    latency: Arc<obs::metrics::Histogram>,
    own_accepted: AtomicU64,
    own_served: AtomicU64,
    own_shed: AtomicU64,
}

impl Metrics {
    fn resolve() -> Metrics {
        Metrics {
            accepted: obs::metrics::counter("http.accepted"),
            served: obs::metrics::counter("http.served"),
            shed: obs::metrics::counter("http.shed"),
            timeouts: obs::metrics::counter("http.timeout"),
            disconnects: obs::metrics::counter("http.disconnect"),
            malformed: obs::metrics::counter("http.malformed"),
            too_large: obs::metrics::counter("http.too_large"),
            panics: obs::metrics::counter("http.panic"),
            class_2xx: obs::metrics::counter("http.status.2xx"),
            class_3xx: obs::metrics::counter("http.status.3xx"),
            class_4xx: obs::metrics::counter("http.status.4xx"),
            class_5xx: obs::metrics::counter("http.status.5xx"),
            latency: obs::metrics::histogram("http.request_ns", &obs::metrics::LATENCY_NS),
            own_accepted: AtomicU64::new(0),
            own_served: AtomicU64::new(0),
            own_shed: AtomicU64::new(0),
        }
    }

    fn count_status(&self, status: u16) {
        match status / 100 {
            2 => self.class_2xx.inc(),
            3 => self.class_3xx.inc(),
            4 => self.class_4xx.inc(),
            _ => self.class_5xx.inc(),
        }
    }
}

/// A bound, not-yet-running HTTP server. [`Server::run`] consumes it
/// and blocks until a [`ShutdownHandle`] fires.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    cfg: ServeConfig,
    handler: Arc<dyn Handler>,
    shutdown: ShutdownHandle,
}

impl Server {
    /// Validate `cfg`, parse and bind its address, and prepare the
    /// pool. Fails with a typed [`ServeError`] — never a panic — on bad
    /// input (`Config`) or an OS refusal like `EADDRINUSE` (`Io`).
    pub fn bind(cfg: ServeConfig, handler: Arc<dyn Handler>) -> Result<Server, ServeError> {
        cfg.validate()?;
        // Numeric parse only: a DNS lookup here would make bind time
        // depend on resolver state, and the CLI contract says `--addr`
        // is `IP:PORT`.
        let addr: SocketAddr = cfg.addr.parse().map_err(|_| ServeError::Config {
            field: "serve.addr".to_string(),
            message: format!(
                "{:?} is not a numeric socket address (expected IP:PORT, e.g. 127.0.0.1:8080)",
                cfg.addr
            ),
        })?;
        let io_err = |what: &str, e: &std::io::Error| ServeError::Io {
            addr: cfg.addr.clone(),
            message: format!("{what}: {e}"),
        };
        let listener = TcpListener::bind(addr).map_err(|e| io_err("bind failed", &e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| io_err("local_addr failed", &e))?;
        Ok(Server {
            listener,
            local_addr,
            cfg,
            handler,
            shutdown: ShutdownHandle::new(local_addr),
        })
    }

    /// The actual bound address (resolves port 0 to the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that triggers graceful drain when fired.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Accept and serve until the shutdown handle fires, then drain:
    /// stop accepting, finish queued and in-flight requests within
    /// `drain_deadline_ms` (late queued connections get a fast `503`),
    /// and report what happened.
    pub fn run(self) -> DrainReport {
        let metrics = Arc::new(Metrics::resolve());
        let (tx, rx) = sync_channel::<TcpStream>(self.cfg.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        // Set once when drain starts; workers use it to fast-503 queued
        // connections after the deadline instead of handling them fully.
        let drain_started: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
        // Workers still running; each exit notifies the drain wait.
        let live = Arc::new((Mutex::new(self.cfg.workers), Condvar::new()));
        for i in 0..self.cfg.workers {
            let rx = rx.clone();
            let handler = self.handler.clone();
            let metrics = metrics.clone();
            let cfg = self.cfg.clone();
            let worker_live = live.clone();
            let drain_started = drain_started.clone();
            let spawned = thread::Builder::new()
                .name(format!("http-worker-{i}"))
                .spawn(move || {
                    worker_loop(&rx, &*handler, &metrics, &cfg, &drain_started);
                    *lock(&worker_live.0) -= 1;
                    worker_live.1.notify_all();
                });
            if spawned.is_err() {
                // Degrade to fewer workers rather than dying: capacity
                // shrinks, correctness does not.
                *lock(&live.0) -= 1;
                obs::warn!("http: failed to spawn worker {i}; continuing with fewer");
            }
        }
        obs::info!(
            "http: listening on {} ({} workers, queue depth {})",
            self.local_addr,
            self.cfg.workers,
            self.cfg.queue_depth
        );

        while !self.shutdown.is_shutdown() {
            match self.listener.accept() {
                // The wake connection, or a client that raced the
                // shutdown: drop it as a listener closed a moment
                // earlier would have, unanswered and uncounted.
                Ok(_) if self.shutdown.is_shutdown() => break,
                Ok((stream, _peer)) => {
                    metrics.accepted.inc();
                    metrics.own_accepted.fetch_add(1, Ordering::Relaxed);
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => shed(stream, &self.cfg, &metrics),
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    obs::warn!("http: accept failed: {e}");
                    thread::sleep(Duration::from_millis(5));
                }
            }
        }

        // Drain: closing the sender ends worker loops once the queue
        // empties; the deadline bounds how long we wait for stragglers.
        obs::info!("http: draining (deadline {} ms)", self.cfg.drain_deadline_ms);
        *lock(&drain_started) = Some(Instant::now());
        drop(tx);
        let deadline = Duration::from_millis(self.cfg.drain_deadline_ms);
        let (count, exited) = &*live;
        let busy = *exited
            .wait_timeout_while(lock(count), deadline, |busy| *busy > 0)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        if busy > 0 {
            obs::warn!("http: {busy} worker(s) still busy past the drain deadline; detaching");
        }
        DrainReport {
            drained: busy == 0,
            accepted: metrics.own_accepted.load(Ordering::Relaxed),
            served: metrics.own_served.load(Ordering::Relaxed),
            shed: metrics.own_shed.load(Ordering::Relaxed),
        }
    }
}

/// Lock a mutex, surviving poison: the protected values here (a drain
/// timestamp, a receiver, a worker count) stay valid even if a holder
/// panicked.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    handler: &dyn Handler,
    metrics: &Metrics,
    cfg: &ServeConfig,
    drain_started: &Mutex<Option<Instant>>,
) {
    loop {
        // Holding the lock across recv() parks exactly one idle worker
        // on the channel; handling happens after the guard drops, so
        // the pool still serves `workers` requests concurrently.
        let received = lock(rx).recv();
        let Ok(stream) = received else { return };
        let past_deadline = lock(drain_started)
            .map(|t| t.elapsed() >= Duration::from_millis(cfg.drain_deadline_ms))
            .unwrap_or(false);
        if past_deadline {
            shed(stream, cfg, metrics);
            continue;
        }
        handle_connection(stream, handler, metrics, cfg);
    }
}

/// Answer an over-capacity connection with `503` + `Retry-After` under
/// the normal write deadline, and count it in `http.shed`.
fn shed(stream: TcpStream, cfg: &ServeConfig, metrics: &Metrics) {
    metrics.shed.inc();
    metrics.own_shed.fetch_add(1, Ordering::Relaxed);
    let resp = Response::text(503, "over capacity; retry shortly\n")
        .with_header("Retry-After", RETRY_AFTER_SECS);
    write_response(stream, &resp, cfg);
}

fn write_response(mut stream: TcpStream, resp: &Response, cfg: &ServeConfig) -> bool {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms)));
    let bytes = resp.encode();
    match stream.write_all(&bytes).and_then(|()| stream.flush()) {
        Ok(()) => true,
        Err(e) => {
            obs::debug!("http: response write failed: {e}");
            false
        }
    }
}

fn handle_connection(
    mut stream: TcpStream,
    handler: &dyn Handler,
    metrics: &Metrics,
    cfg: &ServeConfig,
) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms)));
    match http::read_request(&mut stream, MAX_HEAD_BYTES) {
        Ok(req) => {
            // The single workspace unwind site: a panicking handler
            // (organic or chaos-injected) costs one 500, not a worker.
            let resp = match simcore::recover::capture(simcore::chaos::sites::HTTP_REQUEST, || {
                handler.handle(&req)
            }) {
                Ok(resp) => resp,
                Err(caught) => {
                    metrics.panics.inc();
                    obs::warn!("http: handler panicked: {caught}");
                    Response::text(500, "internal error: request handler panicked\n")
                }
            };
            metrics.served.inc();
            metrics.own_served.fetch_add(1, Ordering::Relaxed);
            metrics.count_status(resp.status);
            let ok = write_response(stream, &resp, cfg);
            metrics
                .latency
                .record(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            // Access log on the leveled logger (DDOSCOVERY_LOG=debug).
            obs::debug!(
                "http: {} {}{}{} -> {} ({} bytes{})",
                req.method,
                req.path,
                if req.query.is_empty() { "" } else { "?" },
                req.query,
                resp.status,
                resp.body.len(),
                if ok { "" } else { ", write failed" }
            );
        }
        Err(ParseError::TooLarge) => {
            metrics.too_large.inc();
            write_response(stream, &Response::text(431, "request head too large\n"), cfg);
        }
        Err(ParseError::Malformed(why)) => {
            metrics.malformed.inc();
            write_response(stream, &Response::bad_request(why), cfg);
        }
        Err(ParseError::Timeout) => {
            metrics.timeouts.inc();
            // Best effort: a slowloris peer may not read it either.
            write_response(stream, &Response::text(408, "request head timed out\n"), cfg);
        }
        Err(ParseError::Disconnect) => {
            metrics.disconnects.inc();
        }
        Err(ParseError::Io(e)) => {
            metrics.disconnects.inc();
            obs::debug!("http: request read failed: {e}");
        }
    }
}
