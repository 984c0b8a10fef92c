//! `bea-serve`: a dependency-free attack-as-a-service layer.
//!
//! The crate turns the butterfly-effect attack stack into a long-running
//! service using nothing outside `std` (plus the workspace's raw-epoll
//! `bea-reactor` crate): a hand-rolled incremental HTTP/1.1 layer over
//! [`std::net::TcpListener`] ([`http`]), one event-driven connection
//! front-end multiplexing thousands of sockets on one thread
//! (`reactor`) for both the server and the shard router ([`router`]),
//! per-tenant token-bucket admission and in-system quotas ([`tenant`]),
//! a tenant-fair bounded job queue with explicit backpressure
//! (`bea-core`'s `FairQueue`), a worker pool that drains jobs through
//! the same deterministic campaign path batch runs use, one job per
//! worker ([`server`]), Prometheus-text metrics ([`metrics`]) and
//! a minimal blocking client for load generation, the router's hops and
//! tests ([`client`]).
//!
//! Serving is Linux-only: the front-end needs epoll, so elsewhere
//! [`Server::start`] and [`Router::start`] report
//! [`std::io::ErrorKind::Unsupported`].
//!
//! # Endpoints
//!
//! | Endpoint | Behaviour |
//! |---|---|
//! | `POST /v1/attacks` | Submit a JSON job: `202` + id, or `429` + `Retry-After` when the queue is full |
//! | `GET /v1/attacks/{id}` | Job status (`queued` / `running` / `done` / `failed`) |
//! | `GET /v1/attacks/{id}/csv` | The persisted cell CSV once done (`409` before) |
//! | `GET /healthz` | Liveness plus queue depth and in-flight count |
//! | `GET /metrics` | Prometheus text: queue gauges, job counters, cache counters, latency histograms |
//! | `POST /v1/shutdown` | Ask the embedding process to drain and stop |
//!
//! # Determinism contract
//!
//! A served job is one campaign cell: its NSGA-II seed derives from
//! `(base_seed, model_seed, image_index)` exactly as a batch campaign
//! derives it, and its result persists through the same store writer —
//! so the CSV served for a job is byte-identical to a direct
//! `Campaign` run of the same cell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod metrics;
pub mod progress;
pub(crate) mod reactor;
pub mod router;
pub mod server;
pub mod tenant;

pub use client::{Client, ClientTimeouts, HttpConnection, HttpResponse};
pub use metrics::{percentile, Metrics};
pub use progress::ProgressFeed;
pub use router::{Router, ShardSet};
pub use server::{Server, ServerConfig, ShutdownReport};
pub use tenant::{AdmitError, TenantGovernor, TenantPolicy};
