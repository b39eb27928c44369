//! `scenicd`: a long-running scenario service.
//!
//! The Scenic pipeline's costs split sharply: compiling a scenario is
//! pure overhead that repeats across runs, and every CLI invocation
//! also pays process startup plus worker-pool spin-up. This crate moves
//! sampling behind a daemon so those costs are paid once:
//!
//! - [`proto`] — the wire protocol: length-prefixed JSON frames with a
//!   typed request/response schema and structured errors;
//! - [`server`] — the daemon: one shared
//!   [`WorkerPool`](scenic_core::WorkerPool) and
//!   [`ScenarioCache`](scenic_core::ScenarioCache) across all clients,
//!   streaming batch replies, `status`/`stats`/`health`, graceful
//!   shutdown, per-request timeouts;
//! - [`client`] — the client library the `scenic client` CLI is built
//!   on;
//! - [`mod@format`] — the scene renderer shared with the CLI, which is what
//!   makes daemon output *byte-identical* to `scenic sample`.
//!
//! Determinism survives the daemon: scene `i` of a batch draws from an
//! RNG stream derived only from `(seed, i)`, so chunked streaming over
//! a socket reproduces exactly what a local run produces.

#![warn(missing_docs)]

pub mod client;
pub mod format;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, ClientResult};
pub use proto::{DaemonStats, ProtoError, Request, Response, SampleRequest};
pub use server::{Server, ServerConfig, ServerHandle, ServerState};
