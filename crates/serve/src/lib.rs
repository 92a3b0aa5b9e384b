//! `pfsim-serve`: the simulator as a long-running experiment service.
//!
//! The service accepts schema-v2 wire specs
//! ([`pfsim_bench::spec::wire`]) over a hand-rolled HTTP/1.1 API,
//! runs them on a bounded worker pool through the ordinary
//! [`Runner`](pfsim_bench::Runner), and answers repeat submissions from
//! a content-addressed result cache — an identical spec on the same
//! build is never re-simulated, and its manifest comes back
//! byte-identical.
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /jobs` | submit a wire spec (202 with a job id; 429 when the queue is full; 503 while draining) |
//! | `GET /jobs/<id>` | job status (state, cells done, cache hit/miss counts) |
//! | `GET /jobs/<id>/events` | streamed NDJSON per-cell progress |
//! | `GET /jobs/<id>/manifest` | the finished manifest (409 until done) |
//! | `POST /jobs/<id>/cancel` | cancel (queued: immediate; running: next cell boundary) |
//! | `GET /status` | queue depth, per-state job counts, metrics registry snapshot |
//! | `POST /shutdown` | graceful drain (same path a SIGTERM takes) |
//!
//! See `DESIGN.md` §13 for the cache key derivation and the job
//! lifecycle state machine.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod job;
pub mod server;

pub use client::Client;
pub use server::{ServeConfig, Server};
