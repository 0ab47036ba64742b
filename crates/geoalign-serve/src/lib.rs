//! **geoalign-serve** — a batch crosswalk HTTP service over the
//! prepare/apply split of `geoalign-core`.
//!
//! The serving thesis mirrors the paper's workload (§4.3): the expensive
//! part of a crosswalk — the references' Gram matrix and disaggregation
//! state — depends only on the *reference set*, while each query
//! contributes only a cheap right-hand side. So the service snapshots
//! each distinct (source system, target system, reference set) into a
//! [`geoalign_core::PreparedCrosswalk`], caches it in a sharded
//! [`geoalign_core::CrosswalkStore`], and answers `/crosswalk` batches by
//! applying the snapshot to every attribute vector in the request.
//!
//! Everything is `std`-only: a single-threaded readiness [`reactor`]
//! (`epoll(7)`/`poll(2)` over `O_NONBLOCK` sockets, through a local FFI
//! shim), a fixed worker thread pool for the CPU-bound handlers, a
//! hand-rolled incremental HTTP/1.1 subset ([`http`]) and a minimal
//! JSON codec ([`json`]). No async runtime, no external dependencies —
//! the handlers are sparse algebra, so pool threads are the right
//! compute primitive, while connections are multiplexed so an idle
//! socket costs bytes, not a thread.
//!
//! Connections are persistent: the reactor serves HTTP/1.1 requests on
//! one socket until the peer asks for `Connection: close`, the idle
//! timeout ([`ServerConfig::idle_timeout`]) expires, or the
//! per-connection request cap ([`ServerConfig::max_requests_per_conn`])
//! is reached. [`ServerConfig::workers`] bounds *compute* only; at most
//! `workers + max_connections` sockets are admitted, and everything
//! beyond that is shed with `503` + `Retry-After`. Hostile input is cut
//! off early — request heads over [`http::MAX_HEAD_BYTES`] get `431`,
//! JSON nested deeper than [`json::MAX_DEPTH`] gets `400`, and a peer
//! that stalls mid-request gets `408`. See DESIGN.md §10 and §14.
//!
//! The service is observable through `geoalign-obs`: every request runs
//! under a trace scope keyed by its `X-Trace-Id` header (generated when
//! absent, always echoed back), finished spans go into the optional
//! JSON-lines access log ([`ServerConfig::access_log`]), and `/metrics`
//! serves both the legacy JSON shape and Prometheus text exposition
//! (`?format=prometheus`). See DESIGN.md §8.
//!
//! # Quick start
//!
//! ```no_run
//! use geoalign_serve::{Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:8077", ServerConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! // POST /systems, /references, then /crosswalk — see the module docs
//! // of `router` for the request shapes.
//! # server.shutdown();
//! ```

#![warn(missing_docs)]

pub(crate) mod conn;
pub mod http;
pub mod json;
pub mod metrics;
pub mod reactor;
pub mod router;
pub mod server;
pub mod slo;
pub mod store;
#[cfg(test)]
mod test_bodies;

pub use http::{Request, Response};
pub use json::Json;
pub use metrics::Metrics;
pub use reactor::EventLoopKind;
pub use router::route;
pub use server::{Server, ServerConfig};
pub use store::AppState;
