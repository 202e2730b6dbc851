//! HTTP load generation against `ddoscovery serve`: a one-request-per-
//! connection client, seeded request sequences (routes in equal turns,
//! and an assumed traffic mix), an open-loop generator
//! that times each request from when it was due, and a closed-loop
//! capacity probe.

use obs::manifest::fnv1a;
use simcore::SimRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// One GET, optionally a revalidation (`If-None-Match`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// Path with query, e.g. `/v1/series/ucsd?norm=1`.
    pub target: String,
    pub etag: Option<String>,
}

impl Req {
    pub fn get(target: impl Into<String>) -> Req {
        Req {
            target: target.into(),
            etag: None,
        }
    }

    /// The request head as sent on the wire.
    pub fn raw(&self) -> Vec<u8> {
        let mut head = format!("GET {} HTTP/1.1\r\nHost: bench\r\n", self.target);
        if let Some(tag) = &self.etag {
            head.push_str(&format!("If-None-Match: {tag}\r\n"));
        }
        head.push_str("\r\n");
        head.into_bytes()
    }

    /// The request as the server parses it, for direct handler calls.
    pub fn parsed(&self) -> serve::Request {
        let raw = self.raw();
        serve::http::parse_head(&raw[..raw.len() - 4]).expect("benchmark requests are well-formed")
    }

    /// The route of [`ROUTES`] this request exercises ("other" for none).
    pub fn route(&self) -> &'static str {
        match (self.etag.is_some(), self.target.as_str()) {
            (true, _) => "not_modified",
            (_, "/v1/trends") => "trends",
            (_, "/v1/manifest") => "manifest",
            (_, "/healthz") => "healthz",
            (_, t) if t.starts_with("/v1/series/") => "series",
            (_, t) if t.starts_with("/v1/experiments/") => "experiment",
            _ => "other",
        }
    }
}

/// The service's routes, one per kind of request a client sends; a
/// revalidation (`If-None-Match`, answered 304) is a route of its own.
pub const ROUTES: [&str; 6] = [
    "trends",
    "series",
    "experiment",
    "manifest",
    "not_modified",
    "healthz",
];

/// A parsed response.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub etag: Option<String>,
    pub body: Vec<u8>,
}

/// Send one request on a fresh connection and read the whole response.
/// Returns the reply and the connect time.
pub fn fetch(addr: SocketAddr, req: &Req) -> std::io::Result<(Reply, Duration)> {
    let t = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect = t.elapsed();
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(&req.raw())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
        .map(|reply| (reply, connect))
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

fn parse_reply(raw: &[u8]) -> Option<Reply> {
    let end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let etag = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("etag"))
        .map(|(_, v)| v.trim().to_string());
    Some(Reply {
        status,
        etag,
        body: raw[end + 4..].to_vec(),
    })
}

/// One request of a load run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the request list the run was given.
    pub req: usize,
    /// Sequence number of the request in the run (its due order).
    pub seq: usize,
    /// From the due time to the last response byte.
    pub latency_ms: f64,
    /// From the due time to the send.
    pub late_ms: f64,
    pub connect_ms: f64,
    /// `None` on a connection or protocol error.
    pub status: Option<u16>,
    pub body_hash: u64,
}

impl Sample {
    /// Served with a status other than 200/304, or not served at all.
    pub fn failed(&self) -> bool {
        !matches!(self.status, Some(200 | 304))
    }
}

/// The outcome of one fixed-rate rung.
#[derive(Debug, Clone)]
pub struct Rung {
    pub rate: f64,
    /// Requests scheduled in the rung.
    pub offered: usize,
    /// Requests that were due but not sent by the rung's end + 1 s.
    pub missed: usize,
    pub samples: Vec<Sample>,
}

impl Rung {
    pub fn completed_ratio(&self) -> f64 {
        let ok = self.samples.iter().filter(|s| !s.failed()).count();
        ok as f64 / self.offered.max(1) as f64
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| !s.failed())
            .map(|s| s.latency_ms)
            .collect()
    }
}

fn sample(addr: SocketAddr, reqs: &[Req], req: usize, seq: usize, due: Instant) -> Sample {
    let sent = Instant::now();
    let result = fetch(addr, &reqs[req]);
    let latency_ms = due.elapsed().as_secs_f64() * 1e3;
    let late_ms = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
    match result {
        Ok((reply, connect)) => Sample {
            req,
            seq,
            latency_ms,
            late_ms,
            connect_ms: connect.as_secs_f64() * 1e3,
            status: Some(reply.status),
            body_hash: fnv1a(&reply.body),
        },
        Err(_) => Sample {
            req,
            seq,
            latency_ms,
            late_ms,
            connect_ms: 0.0,
            status: None,
            body_hash: 0,
        },
    }
}

/// Open loop: request `k` is due at `k / rate` seconds after the start
/// and cycles through `reqs`. `generators` threads share the schedule
/// (thread `j` owns every `k ≡ j`), so at most `generators` requests are
/// in flight, and a slow response makes that thread's later requests
/// late — their latency counts the wait, because it is timed from the
/// due time. A request not sent by the rung's end + 1 s is missed.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Req],
    rate: f64,
    duration: Duration,
    generators: usize,
) -> Rung {
    let offered = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
    let start = Instant::now();
    let cutoff = start + duration + Duration::from_secs(1);
    let per_thread: Vec<(Vec<Sample>, usize)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..generators)
            .map(|j| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut missed = 0;
                    for k in (j..offered).step_by(generators) {
                        let due = start + Duration::from_secs_f64(k as f64 / rate);
                        let now = Instant::now();
                        if now < due {
                            thread::sleep(due - now);
                        } else if now > cutoff {
                            missed += 1;
                            continue;
                        }
                        samples.push(sample(addr, reqs, k % reqs.len(), k, due));
                    }
                    (samples, missed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    let mut samples = Vec::with_capacity(offered);
    let mut missed = 0;
    for (s, m) in per_thread {
        samples.extend(s);
        missed += m;
    }
    samples.sort_by_key(|s| s.seq);
    Rung {
        rate,
        offered,
        missed,
        samples,
    }
}

/// Closed loop: `clients` threads each send their next request as soon
/// as the previous one completes, for `duration`. Returns the samples
/// and the elapsed seconds; completed/elapsed is the service's capacity
/// at that concurrency.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Req],
    duration: Duration,
    clients: usize,
) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let per_thread: Vec<Vec<Sample>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|j| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut k = j;
                    while start.elapsed() < duration {
                        samples.push(sample(addr, reqs, k % reqs.len(), k, Instant::now()));
                        k += clients;
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    (per_thread.into_iter().flatten().collect(), elapsed)
}

/// The request population the sequences draw from: every URL they send,
/// with the ETags a revalidation needs.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// `/v1/series/<slug>` and `…?norm=1` for every series.
    pub series: Vec<String>,
    /// Experiment bodies and CSV artifacts of the served experiments.
    pub experiments: Vec<String>,
    /// `(target, etag)` of `/v1/trends` and every series URL.
    pub etags: Vec<(String, String)>,
}

impl Catalog {
    /// Every distinct URL (no revalidations), for pre-warming.
    pub fn urls(&self) -> Vec<String> {
        let mut out = vec![
            "/v1/trends".to_string(),
            "/v1/manifest".to_string(),
            "/healthz".to_string(),
        ];
        out.extend(self.series.iter().cloned());
        out.extend(self.experiments.iter().cloned());
        out
    }
}

/// `blocks` × 6 requests in which every route of [`ROUTES`] has the same
/// share: each block of six holds one request per route, in an order and
/// with URLs drawn from the seed. Latencies measured over it need no
/// traffic weights.
pub fn in_turn(seed: u64, blocks: usize, catalog: &Catalog) -> Vec<Req> {
    let mut rng = SimRng::new(seed).fork_named("routes-in-turn");
    let mut out = Vec::with_capacity(blocks * ROUTES.len());
    for _ in 0..blocks {
        let (target, etag) = rng.choose(&catalog.etags).clone();
        let mut block = [
            Req::get("/v1/trends"),
            Req::get(rng.choose(&catalog.series).clone()),
            Req::get(rng.choose(&catalog.experiments).clone()),
            Req::get("/v1/manifest"),
            Req {
                target,
                etag: Some(etag),
            },
            Req::get("/healthz"),
        ];
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

/// `n` requests drawn from an assumed traffic mix (there are no access
/// logs to derive one from): 25 % series, 20 % revalidations of trends
/// and series (304), 15 % trends, 20 % experiments, 10 % manifest, 10 %
/// health checks. Only the traced rate ladder uses it; no gated metric
/// depends on these weights.
pub fn mix(seed: u64, n: usize, catalog: &Catalog) -> Vec<Req> {
    let mut rng = SimRng::new(seed).fork_named("request-mix");
    (0..n)
        .map(|_| match rng.usize_below(100) {
            0..=24 => Req::get(rng.choose(&catalog.series).clone()),
            25..=44 => {
                let (target, etag) = rng.choose(&catalog.etags).clone();
                Req {
                    target,
                    etag: Some(etag),
                }
            }
            45..=59 => Req::get("/v1/trends"),
            60..=79 => Req::get(rng.choose(&catalog.experiments).clone()),
            80..=89 => Req::get("/v1/manifest"),
            _ => Req::get("/healthz"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_status_etag_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nETag: \"abc\"\r\n\r\nhi";
        let r = parse_reply(raw).expect("parses");
        assert_eq!(
            (r.status, r.etag.as_deref(), &r.body[..]),
            (200, Some("\"abc\""), &b"hi"[..])
        );
        assert!(parse_reply(b"garbage").is_none());
    }

    #[test]
    fn requests_round_trip_through_the_server_parser() {
        let req = Req {
            target: "/v1/series/ucsd?norm=1".into(),
            etag: Some("\"x\"".into()),
        };
        let parsed = req.parsed();
        assert_eq!(
            (parsed.path.as_str(), parsed.query.as_str()),
            ("/v1/series/ucsd", "norm=1")
        );
        assert_eq!(parsed.header("if-none-match"), Some("\"x\""));
    }

    #[test]
    fn the_mix_is_seeded_and_covers_every_category() {
        let catalog = Catalog {
            series: vec!["/v1/series/a".into()],
            experiments: vec!["/v1/experiments/fig2".into()],
            etags: vec![("/v1/trends".into(), "\"t\"".into())],
        };
        let a = mix(7, 1000, &catalog);
        assert_eq!(a, mix(7, 1000, &catalog));
        assert_ne!(a, mix(8, 1000, &catalog));
        let share = |f: &dyn Fn(&Req) -> bool| a.iter().filter(|r| f(r)).count() as f64 / 1000.0;
        let revalidations = share(&|r| r.etag.is_some());
        let health = share(&|r| r.target == "/healthz");
        assert!((0.15..0.25).contains(&revalidations), "{revalidations}");
        assert!((0.06..0.14).contains(&health), "{health}");
    }

    #[test]
    fn in_turn_gives_every_route_one_request_per_block() {
        let catalog = Catalog {
            series: vec!["/v1/series/a".into(), "/v1/series/a?norm=1".into()],
            experiments: vec!["/v1/experiments/fig2".into()],
            etags: vec![("/v1/trends".into(), "\"t\"".into())],
        };
        let reqs = in_turn(7, 50, &catalog);
        assert_eq!(reqs, in_turn(7, 50, &catalog));
        assert_ne!(reqs, in_turn(8, 50, &catalog));
        for block in reqs.chunks(ROUTES.len()) {
            let mut routes: Vec<&str> = block.iter().map(Req::route).collect();
            routes.sort_unstable();
            let mut all = ROUTES.to_vec();
            all.sort_unstable();
            assert_eq!(routes, all);
        }
        // The order within a block is seeded, not fixed.
        assert!(reqs
            .chunks(ROUTES.len())
            .any(|b| b[0].route() != reqs[0].route()));
    }
}
