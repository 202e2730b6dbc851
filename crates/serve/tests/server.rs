//! Socket-level tests for the bounded server: typed bind failures,
//! load shedding under a saturated pool, slowloris deadlines, and
//! graceful drain. Client-side `TcpStream` use is fine here — lint
//! rule 8 confines socket IO to `crates/serve/src`, and tests are the
//! one place we deliberately play the hostile peer.
//!
//! The `http.*` counters are process-global, so every assertion on
//! them is a *delta* around the scenario — the test binary runs
//! scenarios in parallel threads sharing one metrics registry. A
//! `DrainReport` counts its own server only, so its counts are exact.

use serve::{DrainReport, Handler, Request, Response, ServeConfig, Server, ServeError, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Small deadlines so hostile-peer scenarios resolve in milliseconds.
fn quick_cfg() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 4,
        read_timeout_ms: 150,
        write_timeout_ms: 500,
        drain_deadline_ms: 3_000,
        ..ServeConfig::default()
    }
}

fn start(
    cfg: ServeConfig,
    handler: Arc<dyn Handler>,
) -> (SocketAddr, ShutdownHandle, thread::JoinHandle<DrainReport>) {
    let server = Server::bind(cfg, handler).expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let join = thread::spawn(move || server.run());
    (addr, shutdown, join)
}

/// Send raw bytes, read the whole response (the server always closes).
fn roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("send request");
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

#[test]
fn bind_classifies_bad_input_as_config_errors() {
    let hello: Arc<dyn Handler> = Arc::new(|_req: &Request| Response::text(200, "hi"));
    let cases = [
        ("not-an-addr", "serve.addr"),
        ("localhost:8080", "serve.addr"), // numeric only, no DNS
        ("127.0.0.1", "serve.addr"),      // missing port
    ];
    for (addr, field) in cases {
        let cfg = ServeConfig { addr: addr.to_string(), ..ServeConfig::default() };
        match Server::bind(cfg, hello.clone()).err() {
            Some(ServeError::Config { field: f, .. }) => assert_eq!(f, field, "addr {addr:?}"),
            other => panic!("{addr:?}: expected Config error, got {other:?}"),
        }
    }
    let cfg = ServeConfig { workers: 0, ..quick_cfg() };
    match Server::bind(cfg, hello.clone()).err() {
        Some(ServeError::Config { field, .. }) => assert_eq!(field, "serve.workers"),
        other => panic!("expected Config error for workers=0, got {other:?}"),
    }
    let cfg = ServeConfig { queue_depth: 0, ..quick_cfg() };
    assert!(matches!(
        Server::bind(cfg, hello).err(),
        Some(ServeError::Config { .. })
    ));
}

#[test]
fn bind_reports_an_occupied_port_as_io() {
    // Occupy a port with a plain listener, then ask the server for it.
    let squatter = TcpListener::bind("127.0.0.1:0").expect("squat a port");
    let addr = squatter.local_addr().expect("squatter addr");
    let cfg = ServeConfig { addr: addr.to_string(), ..ServeConfig::default() };
    let hello: Arc<dyn Handler> = Arc::new(|_req: &Request| Response::text(200, "hi"));
    match Server::bind(cfg, hello).err() {
        Some(ServeError::Io { addr: reported, message }) => {
            assert_eq!(reported, addr.to_string());
            assert!(message.contains("bind failed"), "message: {message}");
        }
        other => panic!("expected Io error on occupied port, got {other:?}"),
    }
}

#[test]
fn serves_requests_and_drains_cleanly() {
    let handler: Arc<dyn Handler> = Arc::new(|req: &Request| {
        Response::text(200, &format!("echo {}\n", req.path))
    });
    let (addr, shutdown, join) = start(quick_cfg(), handler);
    for i in 0..4 {
        let resp = roundtrip(addr, format!("GET /ping/{i} HTTP/1.1\r\n\r\n").as_bytes());
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "resp: {resp:?}");
        assert!(resp.contains("Connection: close"));
        assert!(resp.ends_with(&format!("echo /ping/{i}\n")));
    }
    shutdown.shutdown();
    let report = join.join().expect("server thread");
    assert_eq!(
        report,
        DrainReport { drained: true, accepted: 4, served: 4, shed: 0 },
        "drain inside the deadline, wake connection uncounted"
    );
}

#[test]
fn shutdown_wakes_an_idle_acceptor() {
    let hello: Arc<dyn Handler> = Arc::new(|_req: &Request| Response::text(200, "hi\n"));
    // (listen address, fire before run(), requests served first). A
    // served request means the acceptor has looped back into accept(),
    // so the handle fires at a parked acceptor; the wildcard bind needs
    // the wake address mapped to loopback.
    let cases = [("127.0.0.1:0", true, 0), ("127.0.0.1:0", false, 1), ("0.0.0.0:0", false, 1)];
    for (listen, early, requests) in cases {
        let cfg = ServeConfig { addr: listen.to_string(), ..quick_cfg() };
        let server = Server::bind(cfg, hello.clone()).expect("bind");
        let loopback = SocketAddr::from(([127, 0, 0, 1], server.local_addr().port()));
        let shutdown = server.shutdown_handle();
        if early {
            shutdown.shutdown();
        }
        let (done, report) = mpsc::channel();
        thread::spawn(move || done.send(server.run()));
        for _ in 0..requests {
            let resp = roundtrip(loopback, b"GET /hi HTTP/1.1\r\n\r\n");
            assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{listen}: {resp:?}");
        }
        if !early {
            shutdown.shutdown();
        }
        let report = report
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("{listen} (early: {early}): acceptor never woke: {e}"));
        assert_eq!(
            report,
            DrainReport { drained: true, accepted: requests, served: requests, shed: 0 },
            "{listen} (early: {early})"
        );
    }
}

#[test]
fn overload_sheds_with_retry_after() {
    // One worker stuck behind a 400 ms handler and a queue of one:
    // a burst of connections must overflow admission and get 503s.
    let handler: Arc<dyn Handler> = Arc::new(|_req: &Request| {
        thread::sleep(Duration::from_millis(400));
        Response::text(200, "slow ok\n")
    });
    let cfg = ServeConfig { workers: 1, queue_depth: 1, ..quick_cfg() };
    let (addr, shutdown, join) = start(cfg, handler);
    let shed_before = obs::metrics::counter("http.shed").get();

    let clients: Vec<_> = (0..8)
        .map(|_| thread::spawn(move || roundtrip(addr, b"GET /burst HTTP/1.1\r\n\r\n")))
        .collect();
    let responses: Vec<String> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();

    let shed_responses = responses
        .iter()
        .filter(|r| r.starts_with("HTTP/1.1 503 "))
        .count();
    assert!(shed_responses > 0, "burst of 8 at capacity 2 must shed: {responses:?}");
    for resp in responses.iter().filter(|r| r.starts_with("HTTP/1.1 503 ")) {
        assert!(resp.contains("Retry-After: 1\r\n"), "shed response: {resp:?}");
    }
    // Every accepted connection got *some* complete response.
    for resp in &responses {
        assert!(
            resp.starts_with("HTTP/1.1 200 ") || resp.starts_with("HTTP/1.1 503 "),
            "unexpected response: {resp:?}"
        );
    }
    let shed_delta = obs::metrics::counter("http.shed").get() - shed_before;
    assert!(shed_delta >= shed_responses as u64, "http.shed must count sheds");

    shutdown.shutdown();
    let report = join.join().expect("server thread");
    assert!(report.drained, "report: {report:?}");
}

#[test]
fn slowloris_peers_time_out_without_holding_a_worker() {
    let handler: Arc<dyn Handler> = Arc::new(|_req: &Request| Response::text(200, "ok\n"));
    let (addr, shutdown, join) = start(quick_cfg(), handler);

    // Trickle half a request line and stall past the read deadline.
    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.write_all(b"GET /slow HT").expect("partial head");
    let mut out = String::new();
    let _ = slow.read_to_string(&mut out);
    assert!(
        out.is_empty() || out.starts_with("HTTP/1.1 408 "),
        "slowloris answer: {out:?}"
    );
    drop(slow);

    // The pool is free again: a well-formed request still succeeds.
    let resp = roundtrip(addr, b"GET /after HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "resp: {resp:?}");

    shutdown.shutdown();
    assert!(join.join().expect("server thread").drained);
}

#[test]
fn malformed_and_oversized_heads_get_4xx_not_a_crash() {
    let handler: Arc<dyn Handler> = Arc::new(|_req: &Request| Response::text(200, "ok\n"));
    let (addr, shutdown, join) = start(quick_cfg(), handler);

    let bad = roundtrip(addr, b"BLARG\r\n\r\n");
    assert!(bad.starts_with("HTTP/1.1 400 "), "malformed: {bad:?}");

    let huge = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "z".repeat(16 * 1024));
    let too_large = roundtrip(addr, huge.as_bytes());
    assert!(too_large.starts_with("HTTP/1.1 431 "), "oversized: {too_large:?}");

    // Early disconnect: open, write nothing, close. Server just moves on.
    drop(TcpStream::connect(addr).expect("connect"));
    let resp = roundtrip(addr, b"GET /still-alive HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "resp: {resp:?}");

    shutdown.shutdown();
    assert!(join.join().expect("server thread").drained);
}

#[test]
fn panicking_handler_costs_one_500_not_the_worker() {
    let handler: Arc<dyn Handler> = Arc::new(|req: &Request| {
        if req.path == "/boom" {
            panic!("handler exploded on purpose");
        }
        Response::text(200, "fine\n")
    });
    let (addr, shutdown, join) = start(quick_cfg(), handler);
    let panics_before = obs::metrics::counter("http.panic").get();

    let boom = roundtrip(addr, b"GET /boom HTTP/1.1\r\n\r\n");
    assert!(boom.starts_with("HTTP/1.1 500 "), "panic response: {boom:?}");
    // Same pool keeps serving afterwards — the unwind was contained.
    let ok = roundtrip(addr, b"GET /fine HTTP/1.1\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "resp: {ok:?}");
    assert!(obs::metrics::counter("http.panic").get() > panics_before);

    shutdown.shutdown();
    let report = join.join().expect("server thread");
    assert!(report.drained, "report: {report:?}");
}
