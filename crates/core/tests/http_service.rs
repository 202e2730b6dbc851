//! End-to-end acceptance for `ddoscovery serve` (ISSUE 10): served
//! payloads are byte-identical to CLI stdout, the service survives a
//! soak of mixed well-formed/slow/malformed/chaos-injected clients,
//! bind failures exit with the documented codes, and a corrupt stage
//! store degrades the warm boot to a recompute — never to a dead
//! server.
//!
//! Lint note: client-side sockets are fine here (rule 8 confines
//! socket IO to `crates/serve/src`), but this file must not name the
//! std monotonic-clock type (rule 2) — timing assertions ride
//! `DrainReport` and deadlines, not clocks.

use ddoscovery::{render, ChaosPlan, StudyConfig, StudyRun, StudyService};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

fn roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("send request");
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

/// Split a response into (status, body). An empty response (peer gave
/// up / timed out without answering) maps to status 0.
fn parse_response(raw: &str) -> (u16, String) {
    let Some(rest) = raw.strip_prefix("HTTP/1.1 ") else {
        return (0, String::new());
    };
    let status: u16 = rest[..3].parse().expect("status code");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn cli() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ddoscovery"));
    cmd.env("DDOSCOVERY_LOG", "error");
    cmd
}

/// Spawn `ddoscovery serve` and parse its one stdout line into the
/// bound address. The child keeps running until `/admin/drain`.
fn spawn_serve(extra: &[&str]) -> (Child, SocketAddr) {
    let mut child = cli()
        .args(["serve", "--quick", "--workers", "2", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ddoscovery serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read bound-address line");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("http://")
        .unwrap_or_else(|| panic!("stdout line {line:?} is not http://IP:PORT"))
        .parse()
        .expect("bound address parses");
    (child, addr)
}

fn drain_and_wait(mut child: Child, addr: SocketAddr) {
    let resp = roundtrip(addr, b"GET /admin/drain HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200 "), "drain: {resp:?}");
    let status = child.wait().expect("serve child exits");
    assert!(status.success(), "serve must exit 0 after drain: {status:?}");
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ddoscovery-http-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cell_files(store: &Path) -> Vec<PathBuf> {
    let mut cells = Vec::new();
    for stage in ["plan", "attacks", "observations"] {
        let Ok(entries) = std::fs::read_dir(store.join(stage)) else { continue };
        for entry in entries.flatten() {
            if !entry.file_name().to_string_lossy().starts_with('.') {
                cells.push(entry.path());
            }
        }
    }
    cells
}

// ---------------------------------------------------------------------
// CLI round trips
// ---------------------------------------------------------------------

/// The tentpole byte-equality contract: `/v1/trends` from a real
/// `ddoscovery serve` child is byte-identical to `ddoscovery trends`
/// stdout for the same config — from several concurrent clients.
#[test]
fn served_trends_bytes_match_cli_stdout() {
    let trends = cli()
        .args(["trends", "--quick", "--workers", "2"])
        .output()
        .expect("run ddoscovery trends");
    assert!(trends.status.success(), "{}", String::from_utf8_lossy(&trends.stderr));
    let expected = String::from_utf8(trends.stdout).expect("utf8 table");

    let (child, addr) = spawn_serve(&[]);
    let health = roundtrip(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(parse_response(&health), (200, "ok\n".to_string()));

    let clients: Vec<_> = (0..4)
        .map(|_| thread::spawn(move || roundtrip(addr, b"GET /v1/trends HTTP/1.1\r\n\r\n")))
        .collect();
    for client in clients {
        let raw = client.join().expect("client thread");
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 200, "raw: {raw:?}");
        assert_eq!(body, expected, "served trends diverged from CLI stdout");
    }

    // A series CSV has the documented shape too.
    let series = roundtrip(addr, b"GET /v1/series/hopscotch?norm=1 HTTP/1.1\r\n\r\n");
    let (status, body) = parse_response(&series);
    assert_eq!(status, 200);
    assert!(body.starts_with("week,start_date,"), "csv: {body:?}");

    drain_and_wait(child, addr);
}

/// Bad `--addr` input is usage-class (exit 2); an OS refusal like
/// `EADDRINUSE` is environment-class (exit 1). Neither panics.
#[test]
fn cli_serve_bind_failures_use_documented_exit_codes() {
    let bad = cli()
        .args(["serve", "--quick", "--workers", "2", "--addr", "not-an-addr"])
        .output()
        .expect("spawn serve with bad addr");
    assert_eq!(bad.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&bad.stderr));
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("serve.addr"),
        "stderr names the bad knob: {}",
        String::from_utf8_lossy(&bad.stderr)
    );

    let squatter = TcpListener::bind("127.0.0.1:0").expect("squat a port");
    let addr = squatter.local_addr().expect("squatter addr").to_string();
    let refused = cli()
        .args(["serve", "--quick", "--workers", "2", "--addr", &addr])
        .output()
        .expect("spawn serve against occupied port");
    assert_eq!(
        refused.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&refused.stderr)
    );
}

/// Warm boot through a corrupt stage store degrades to recompute
/// (PR 8's contract), and the recovered server serves the same bytes.
#[test]
fn cli_serve_survives_a_corrupt_store() {
    let store = scratch("corrupt");
    let seed = cli()
        .args(["trends", "--quick", "--workers", "2", "--store"])
        .arg(&store)
        .output()
        .expect("seed the store");
    assert!(seed.status.success(), "{}", String::from_utf8_lossy(&seed.stderr));
    let expected = String::from_utf8(seed.stdout).expect("utf8 table");

    let cells = cell_files(&store);
    assert!(!cells.is_empty(), "seeding must write store cells");
    for path in cells {
        let mut bytes = std::fs::read(&path).expect("read cell");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).expect("corrupt cell");
    }

    let (child, addr) = spawn_serve(&["--store", store.to_str().expect("utf8 path")]);
    let (status, body) = parse_response(&roundtrip(addr, b"GET /v1/trends HTTP/1.1\r\n\r\n"));
    assert_eq!(status, 200);
    assert_eq!(body, expected, "corrupt-store boot diverged from cold stdout");
    drain_and_wait(child, addr);
    let _ = std::fs::remove_dir_all(&store);
}

// ---------------------------------------------------------------------
// Soak: mixed adversarial load against an in-process chaos-armed server
// ---------------------------------------------------------------------

const PANIC_BODY: &str = "internal error: request handler panicked\n";

/// The ISSUE 10 soak: N concurrent clients mixing well-formed, slow,
/// malformed, and oversized requests against a small chaos-armed pool.
/// Every accepted request gets a complete response or a clean 500/503;
/// well-formed payloads are byte-identical to the renderer output;
/// sheds are counted in `http.shed`; drain completes in deadline.
#[test]
fn soak_mixed_adversarial_load() {
    let cfg = StudyConfig::quick();
    let run = StudyRun::try_execute(&cfg).expect("quick config executes");
    let expected = render::trends_table(&run);
    // Chaos is armed on the service only (not the study execution):
    // roughly one in four handled requests panics at the registered
    // `http.request` site and must come back as a clean 500.
    let mut serve_cfg_study = cfg.clone();
    serve_cfg_study.chaos = Some(ChaosPlan::recoverable(0.25, 1234));
    let service = Arc::new(StudyService::new(run, &serve_cfg_study, "quick"));

    let bind = |read_timeout_ms| {
        serve::Server::bind(
            serve::ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 3,
                queue_depth: 2,
                read_timeout_ms,
                write_timeout_ms: 1_000,
                drain_deadline_ms: 5_000,
                ..serve::ServeConfig::default()
            },
            service.clone(),
        )
        .expect("bind soak server")
    };
    let server = bind(400);
    let addr = server.local_addr();
    service.attach_shutdown(server.shutdown_handle());
    let join = thread::spawn(move || server.run());
    // Phase 2 parks its workers on a second server, whose read timeout
    // outlasts the phase; started now, so its workers wait in `recv`
    // long before the stalled heads arrive.
    let parked = bind(10_000);
    let parked_addr = parked.local_addr();
    let parked_shutdown = parked.shutdown_handle();
    let parked_join = thread::spawn(move || parked.run());

    let shed_before = obs::metrics::counter("http.shed").get();
    let panics_before = obs::metrics::counter("http.panic").get();

    // Phase 1: 25 concurrent clients, five request categories.
    let clients: Vec<_> = (0..25)
        .map(|i| {
            let expected = expected.clone();
            thread::spawn(move || {
                match i % 5 {
                    0 => {
                        let raw = roundtrip(addr, b"GET /v1/trends HTTP/1.1\r\n\r\n");
                        let (status, body) = parse_response(&raw);
                        match status {
                            200 => assert_eq!(body, expected, "trends bytes diverged"),
                            500 => assert_eq!(body, PANIC_BODY, "500 must be the clean panic body"),
                            503 => {}
                            other => panic!("trends got {other}: {raw:?}"),
                        }
                    }
                    1 => {
                        let raw = roundtrip(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
                        let (status, body) = parse_response(&raw);
                        match status {
                            200 => assert_eq!(body, "ok\n"),
                            500 => assert_eq!(body, PANIC_BODY),
                            503 => {}
                            other => panic!("healthz got {other}: {raw:?}"),
                        }
                    }
                    2 => {
                        let raw = roundtrip(addr, b"BLARG GARBAGE\r\n\r\n");
                        let (status, _) = parse_response(&raw);
                        assert!(status == 400 || status == 503, "malformed got: {raw:?}");
                    }
                    3 => {
                        let huge = format!(
                            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                            "z".repeat(16 * 1024)
                        );
                        let raw = roundtrip(addr, huge.as_bytes());
                        let (status, _) = parse_response(&raw);
                        assert!(status == 431 || status == 503, "oversized got: {raw:?}");
                    }
                    _ => {
                        // Slowloris: half a request line, then silence.
                        let mut stream = TcpStream::connect(addr).expect("connect slow");
                        stream.write_all(b"GET /slow HT").expect("partial head");
                        let mut out = String::new();
                        let _ = stream.read_to_string(&mut out);
                        let (status, _) = parse_response(&out);
                        assert!(
                            status == 0 || status == 408 || status == 503,
                            "slow peer got: {out:?}"
                        );
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("soak client must not panic");
    }

    // Phase 2: deterministic shedding. Park every worker and fill the
    // queue with stalled heads, then burst past capacity. The heads
    // stall on the parked server: on the soak server, a scheduling
    // stall longer than its 400 ms read timeout would release them and
    // let the burst be served. One head at a time, so the three
    // workers each take one before the last two fill the queue.
    let stalled: Vec<TcpStream> = (0..5)
        .map(|_| {
            let mut stream = TcpStream::connect(parked_addr).expect("connect staller");
            stream.write_all(b"GET /stall HT").expect("partial head");
            thread::sleep(Duration::from_millis(20)); // let a worker park on it
            stream
        })
        .collect();
    let burst: Vec<_> = (0..6)
        .map(|_| {
            thread::spawn(move || roundtrip(parked_addr, b"GET /healthz HTTP/1.1\r\n\r\n"))
        })
        .collect();
    let burst: Vec<String> = burst.into_iter().map(|b| b.join().expect("burst client")).collect();
    let shed_count = burst.iter().filter(|r| r.starts_with("HTTP/1.1 503 ")).count();
    assert!(shed_count > 0, "burst past a parked pool must shed: {burst:?}");
    for resp in burst.iter().filter(|r| r.starts_with("HTTP/1.1 503 ")) {
        assert!(resp.contains("Retry-After: 1\r\n"), "shed response: {resp:?}");
    }
    assert!(
        obs::metrics::counter("http.shed").get() - shed_before >= shed_count as u64,
        "sheds must be counted in http.shed"
    );
    drop(stalled);
    parked_shutdown.shutdown();
    let parked_report = parked_join.join().expect("parked server thread");
    assert!(parked_report.drained, "parked server drains: {parked_report:?}");

    // Phase 3: the chaos schedule is deterministic per request sequence
    // number; within a bounded probe some request must draw a panic and
    // come back as the clean 500 — with the worker still alive.
    let mut saw_chaos = false;
    for _ in 0..64 {
        let (status, body) = parse_response(&roundtrip(addr, b"GET /healthz HTTP/1.1\r\n\r\n"));
        if status == 500 {
            assert_eq!(body, PANIC_BODY);
            saw_chaos = true;
            break;
        }
        assert!(status == 200 || status == 503, "probe got {status}");
    }
    assert!(saw_chaos, "chaos at p=0.25 must fire within 64 probes");
    assert!(obs::metrics::counter("http.panic").get() > panics_before);

    // Phase 4: drain over HTTP. Chaos may 500 the drain request itself;
    // retry — each attempt is a new sequence number.
    let mut drained_response = false;
    for _ in 0..32 {
        let (status, body) = parse_response(&roundtrip(addr, b"GET /admin/drain HTTP/1.1\r\n\r\n"));
        if status == 200 {
            assert_eq!(body, "draining\n");
            drained_response = true;
            break;
        }
        assert!(status == 500 || status == 503, "drain got {status}");
    }
    assert!(drained_response, "drain endpoint must eventually answer 200");
    let report = join.join().expect("server thread");
    assert!(report.drained, "drain inside the deadline: {report:?}");
    assert!(report.served > 0 && report.accepted >= report.served);
}
