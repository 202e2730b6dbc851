//! Byte-capped HTTP/1.1 request parsing and response encoding.
//!
//! The parser is deliberately small and paranoid: it reads at most
//! `max_bytes` from the socket looking for the end-of-head blank
//! line, classifies every failure into a [`ParseError`] variant with a
//! definite status-code mapping, and never panics on any byte sequence
//! (property-tested by `crates/serve/tests/parser_fuzz.rs`). Bodies are
//! ignored by design — every endpoint of the query service is a GET, and
//! the server closes each connection after one response, so pipelined
//! trailing bytes are dropped rather than interpreted.

use std::io::Read;

/// Hard cap on header lines per request; more maps to 431.
pub const MAX_HEADERS: usize = 64;
/// Hard cap on the request-target length; more maps to 400.
pub const MAX_TARGET_BYTES: usize = 2048;

/// A parsed request head. Header names are lower-cased at parse time;
/// the query string is kept raw (no percent-decoding — the service's
/// parameters are plain ASCII tokens and numbers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase ASCII method token, e.g. `GET`.
    pub method: String,
    /// Path component of the request target, always starting with `/`.
    pub path: String,
    /// Raw query string after `?`, empty when absent.
    pub query: String,
    /// `(lowercase-name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == want)
            .map(|(_, v)| v.as_str())
    }

    /// Value of `key` in an `a=b&c=d` query string.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// Why a request head could not be produced. Each variant has one
/// documented wire outcome, applied by the server's connection loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Syntactically invalid head → `400 Bad Request`.
    Malformed(&'static str),
    /// Head exceeded the byte or header-count budget → `431`.
    TooLarge,
    /// The read deadline expired mid-head (slowloris) → `408`.
    Timeout,
    /// The peer closed before sending a single byte → drop silently.
    Disconnect,
    /// Any other socket error → drop, counted as a transport error.
    Io(String),
}

/// Read from `r` until the end-of-head blank line, returning the head
/// bytes (terminator excluded). At most `max_bytes` are buffered; a
/// head that has not terminated by then is [`ParseError::TooLarge`].
pub fn read_head(r: &mut impl Read, max_bytes: usize) -> Result<Vec<u8>, ParseError> {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if let Some(end) = head_end(&buf) {
            buf.truncate(end);
            return Ok(buf);
        }
        if buf.len() >= max_bytes {
            return Err(ParseError::TooLarge);
        }
        match r.read(&mut chunk) {
            Ok(0) => {
                return Err(if buf.is_empty() {
                    ParseError::Disconnect
                } else {
                    ParseError::Malformed("connection closed mid-head")
                });
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => match e.kind() {
                std::io::ErrorKind::Interrupted => {}
                // Both surface for an expired SO_RCVTIMEO depending on
                // platform; either way the peer was too slow.
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    return Err(ParseError::Timeout)
                }
                _ => return Err(ParseError::Io(e.to_string())),
            },
        }
    }
}

/// Offset of the head terminator (`\r\n\r\n`, or bare `\n\n` from
/// sloppy clients), if present.
fn head_end(buf: &[u8]) -> Option<usize> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n");
    let lf = buf.windows(2).position(|w| w == b"\n\n");
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Parse a complete head (as returned by [`read_head`]) into a
/// [`Request`]. Pure — feed it arbitrary bytes.
pub fn parse_head(head: &[u8]) -> Result<Request, ParseError> {
    let text = std::str::from_utf8(head).map_err(|_| ParseError::Malformed("non-UTF-8 head"))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(ParseError::Malformed("request line is not METHOD TARGET VERSION")),
    };
    if method.is_empty()
        || method.len() > 16
        || !method.bytes().all(|b| b.is_ascii_uppercase())
    {
        return Err(ParseError::Malformed("method is not an uppercase ASCII token"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("unsupported protocol version"));
    }
    if !target.starts_with('/') || target.len() > MAX_TARGET_BYTES {
        return Err(ParseError::Malformed("request target must be an origin-form path"));
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::TooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("header line has no colon"))?;
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(ParseError::Malformed("header name is not a token"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        headers,
    })
}

/// [`read_head`] then [`parse_head`]: one bounded read of a request.
pub fn read_request(r: &mut impl Read, max_bytes: usize) -> Result<Request, ParseError> {
    parse_head(&read_head(r, max_bytes)?)
}

/// An application response: status, media type, body, extra headers
/// (`ETag`, `Retry-After`, …). `Content-Length` and `Connection: close`
/// are added by [`Response::encode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes (empty for 304).
    pub body: Vec<u8>,
    /// Additional `(name, value)` headers.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// An `application/json` response from pre-serialized JSON.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// A `text/csv` response.
    pub fn csv(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "text/csv; charset=utf-8",
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// `404` with a one-line body naming what was missing.
    pub fn not_found(what: &str) -> Response {
        Response::text(404, format!("not found: {what}\n"))
    }

    /// `400` with a one-line reason.
    pub fn bad_request(why: &str) -> Response {
        Response::text(400, format!("bad request: {why}\n"))
    }

    /// A bodyless `304 Not Modified` carrying the matched ETag.
    pub fn not_modified(etag: &str) -> Response {
        Response {
            status: 304,
            content_type: "text/plain; charset=utf-8",
            body: Vec::new(),
            headers: vec![("ETag".to_string(), etag.to_string())],
        }
    }

    /// Builder-style extra header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serialize head + body to wire bytes, adding `Content-Length` and
    /// `Connection: close` (the server handles one request per
    /// connection by design).
    pub fn encode(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Canonical reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Request, ParseError> {
        read_request(&mut s.as_bytes(), 8192)
    }

    #[test]
    fn parses_a_plain_get() {
        let req = parse("GET /v1/trends?norm=1 HTTP/1.1\r\nHost: x\r\nIf-None-Match: \"ab\"\r\n\r\n")
            .expect("well-formed");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/trends");
        assert_eq!(req.query, "norm=1");
        assert_eq!(req.query_param("norm"), Some("1"));
        assert_eq!(req.header("if-none-match"), Some("\"ab\""));
        assert_eq!(req.header("IF-NONE-MATCH"), Some("\"ab\""));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let req = parse("GET / HTTP/1.1\nHost: x\n\n").expect("lf-only head");
        assert_eq!(req.path, "/");
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn classifies_malformed_heads() {
        for bad in [
            "GET\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "get / HTTP/1.1\r\n\r\n",
            "GET relative HTTP/1.1\r\n\r\n",
            "GET / SPDY/9\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET / HTTP/1.1\r\nbad name: v\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad), Err(ParseError::Malformed(_))),
                "expected Malformed for {bad:?}, got {:?}",
                parse(bad)
            );
        }
    }

    #[test]
    fn oversized_heads_are_too_large() {
        let huge = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(9000));
        assert_eq!(parse(&huge), Err(ParseError::TooLarge));
        let many: String = (0..80).map(|i| format!("X-H{i}: v\r\n")).collect();
        let req = format!("GET / HTTP/1.1\r\n{many}\r\n");
        assert_eq!(
            read_request(&mut req.as_bytes(), 64 * 1024),
            Err(ParseError::TooLarge)
        );
    }

    #[test]
    fn early_disconnects_and_truncation_are_distinct() {
        assert_eq!(parse(""), Err(ParseError::Disconnect));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nHost: x"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn pipelined_trailing_bytes_are_dropped() {
        let two = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let req = parse(two).expect("first request parses");
        assert_eq!(req.path, "/a");
    }

    #[test]
    fn encodes_responses_with_length_and_close() {
        let bytes = Response::text(200, "hi").with_header("ETag", "\"x\"").encode();
        let text = String::from_utf8(bytes).expect("ascii head");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("ETag: \"x\"\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }
}
