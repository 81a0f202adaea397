//! Dispersal-as-a-service: a long-lived evaluation daemon with
//! cross-request admission batching over the shared kernel caches.
//!
//! The one-shot `dispersal` CLI pays the full startup bill — process
//! spawn, thread-pool construction, cold caches — on every invocation.
//! This crate keeps all of that warm in a daemon: a [`server::Server`]
//! owns the persistent work-stealing pool, a shared interpolation-grid
//! cache, and a shared catalog-tile cache for its whole lifetime, and
//! speaks a line-JSON protocol ([`protocol`]) over TCP or Unix sockets.
//!
//! Its distinguishing move is **admission batching** ([`batch`]): a
//! concurrent burst is held in the admission queue while it keeps
//! growing, so it coalesces (a lone request dispatches at once);
//! response requests that share `(k, resolution, tol)` are
//! evaluated as *one* policy-major `GBatch` kernel tile and the rows are
//! demultiplexed back to their requesters. Batching changes only who
//! computes what — every reply is bit-identical to the same request
//! served alone, and to a direct library call (the round-trip
//! integration test enforces this with `to_bits` equality).
//!
//! Start a daemon in-process (the `dispersal serve` subcommand does the
//! same):
//!
//! ```
//! use dispersal_serve::client::Client;
//! use dispersal_serve::server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let reply = client
//!     .request(r#"{"id":1,"cmd":"response","policy":"sharing","k":8,"resolution":16}"#)
//!     .unwrap();
//! assert!(reply.as_object().is_some());
//! server.shutdown();
//! ```

pub mod batch;
pub mod client;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use protocol::Request;
pub use server::{Metrics, ServeCaches, Server, ServerConfig};
