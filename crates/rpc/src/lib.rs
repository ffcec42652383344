//! Threaded RPC framework for μSuite-rs — the gRPC substitute.
//!
//! μSuite's object of study is the mid-tier microserver's software
//! architecture around its RPC platform (paper §IV, Fig. 8):
//!
//! * **blocking network pollers** that wait for work on the front-end
//!   socket and yield the CPU when idle,
//! * a **dispatch queue** that hands requests from network threads to a
//!   **worker thread pool** via producer–consumer queues and condition
//!   variables,
//! * **asynchronous leaf clients** whose RPC state is explicit (an
//!   in-flight table keyed by request id, not a blocked thread), and
//! * **response threads** that pick up leaf responses, count down, and
//!   merge on the last arrival.
//!
//! This crate implements exactly that architecture over real TCP sockets
//! and real OS threads, with every latency-relevant hand-off instrumented
//! through `musuite_telemetry`:
//!
//! | Paper concept | Type here |
//! |---------------|-----------|
//! | fixed network poller pool (Fig. 8) | [`reactor::Reactor`] sweep threads |
//! | thread-per-connection baseline | [`config::NetworkModel::BlockingPerConn`] |
//! | producer–consumer task queue | [`queue::DispatchQueue`] |
//! | worker thread pool | [`server::Server`] workers |
//! | async leaf clients | [`client::RpcClient::call_async`] |
//! | response threads | [`client::RpcClient`] readers / client reactor |
//! | fan-out + count-down merge | [`fanout::FanoutGroup`] |
//! | hedges, retries, circuit breakers | [`resilient::ResilientConfig`] on a group |
//! | block- vs poll-based designs (§VII) | [`config::WaitMode`] |
//! | inline vs dispatch designs (§VII) | [`config::ExecutionModel`] |
//! | network wait model (§IV/§VII) | [`config::NetworkModel`] |
//!
//! The wire path is zero-copy end to end: each connection's reader — a
//! per-connection poller thread or a shared reactor sweep, driving the
//! same [`buf::RecvBuf`] — fills a reusable chunk and hands out
//! `bytes::Bytes` slices of it; and outgoing frames serialize in place
//! into the connection's reusable pending buffer (the coalescing
//! [`buf::ConnWriter`]), a typed message encoded there by its
//! [`buf::Body`] without a buffer of its own, and bytes a caller holds
//! already — `bytes::Bytes`, the one payload type — copied there.
//!
//! # Examples
//!
//! ```
//! use musuite_rpc::{RpcClient, Server, ServerConfig, Service, RequestContext};
//! use std::sync::Arc;
//!
//! struct Echo;
//! impl Service for Echo {
//!     fn call(&self, ctx: RequestContext) {
//!         let payload = ctx.payload().to_vec();
//!         ctx.respond_ok(payload);
//!     }
//! }
//!
//! # fn main() -> Result<(), musuite_rpc::RpcError> {
//! let server = Server::spawn(ServerConfig::default(), Arc::new(Echo))?;
//! let client = RpcClient::connect(server.local_addr())?;
//! let reply = client.call(7, b"ping".to_vec())?;
//! assert_eq!(reply, b"ping");
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod admission;
pub mod buf;
pub mod client;
pub mod config;
pub mod error;
pub mod fanout;
pub mod fault;
pub mod inline;
pub mod queue;
pub mod reactor;
pub mod resilient;
pub mod server;
pub mod service;
pub mod stats;
mod timer;

pub use admission::{AdmissionControl, AdmissionPermit, LimitChange};
pub use buf::{burst, Body, ConnWriter, RecvBuf};
pub use client::{CallOptions, RpcClient};
pub use config::{
    AdmissionModel, BatchPolicy, ExecutionModel, NetworkModel, ServerConfig, WaitMode,
};
pub use error::{FailureKind, RpcError};
pub use fanout::{FanoutGroup, LeafCall, RingSpan, ScatterPlan};
pub use fault::{ClientFaults, FaultEvent, FaultKind, FaultPlan, FaultRule};
pub use inline::{InlineList, INLINE_SLOTS};
pub use musuite_codec::{Frame, Priority, Status};
pub use queue::DispatchQueue;
pub use reactor::{CloseReason, ConnDriver, Drive, Reactor, ReactorConfig};
pub use resilient::{BreakerConfig, HedgePolicy, ResilientConfig};
pub use server::Server;
pub use service::{RequestContext, Service};
pub use stats::ServerStats;
