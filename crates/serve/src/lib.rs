//! `serve` — the hardened zero-dependency HTTP/1.1 service core.
//!
//! This crate is the workspace's *only* socket layer (repo lint rule 8):
//! `TcpListener`/`TcpStream` may not appear in any other library source.
//! It knows nothing about studies — it exposes a [`Handler`] trait and a
//! [`server::Server`] that drives it; the application layer
//! (`ddoscovery::service::StudyService`) lives in `crates/core` and maps
//! requests onto memoized `StudyRun` projections.
//!
//! The design center is robustness under hostile or overloaded input,
//! not routing (DESIGN.md §12):
//!
//! * **Admission control & load shedding** — a bounded acceptor, parked
//!   in a blocking `accept()` between connections, feeds a fixed worker
//!   pool through a `sync_channel` of depth `queue_depth`;
//!   over-capacity connections are answered `503` + `Retry-After`
//!   immediately (counted in `http.shed`) instead of queueing without
//!   bound.
//! * **Deadlines everywhere** — per-connection read/write timeouts plus
//!   a byte-capped head parser ([`http::read_request`]) defeat slowloris
//!   trickles and oversized headers; malformed input maps to 4xx, never
//!   a panic.
//! * **Single unwind site** — a panicking handler (organic or injected
//!   by a `ChaosSchedule` at the registered `http.request` site) is
//!   recovered through `simcore::recover::capture`, 500s exactly that
//!   one request, and leaves the worker alive.
//! * **Graceful drain** — shutdown wakes the acceptor with one loopback
//!   connection, stops accepting, finishes queued and in-flight
//!   requests, and is bounded by `drain_deadline_ms`; once the deadline
//!   expires, still-queued connections get a fast `503`.
//!
//! Wall-clock use: this crate is an IO boundary like `crates/obs` — its
//! `Instant` reads drive socket deadlines and the drain budget only and
//! never feed simulation state, which is why lint rule 2 allowlists it.

pub mod http;
pub mod server;

pub use http::{ParseError, Request, Response};
pub use server::{DrainReport, ServeConfig, ServeError, Server, ShutdownHandle};

/// An application-layer request handler driven by [`server::Server`].
///
/// Implementations must be panic-tolerant in aggregate — the server
/// wraps every call in `simcore::recover::capture`, so a panic costs
/// one 500 response, never a worker — but should prefer returning 4xx
/// [`Response`]s for bad input.
pub trait Handler: Send + Sync + 'static {
    /// Produce the response for one parsed request.
    fn handle(&self, req: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}
