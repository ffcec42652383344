//! The threaded RPC server: network edge, dispatch queue, worker pool.
//!
//! The network edge is selected by [`NetworkModel`]:
//!
//! * [`NetworkModel::BlockingPerConn`] — one poller thread per connection
//!   blocks on the socket awaiting frames (the paper's "blocking on the
//!   front-end network socket", and the suite's baseline ablation arm).
//! * [`NetworkModel::SharedPollers`] — a fixed [`Reactor`] pool sweeps
//!   every connection (the paper's Fig. 8 mid-tier, where network thread
//!   count is an architectural constant independent of client count).
//!
//! Either way, the connection's protocol is one `ServerConnDriver`, and
//! the model only picks what runs it. Complete requests are enqueued for
//! the worker pool ([`ExecutionModel::Dispatch`]) or handled directly on
//! the network thread ([`ExecutionModel::Inline`]). Workers park on the
//! queue's condition variable when idle, exactly the structure whose futex
//! and wakeup overheads the paper characterizes.
//!
//! Request payloads are zero-copy slices of the connection's receive
//! buffer ([`RecvBuf`](crate::RecvBuf)) in both modes, handed through the
//! dispatch queue into the service without a memcpy. Responses leave
//! through a per-connection coalescing [`crate::ConnWriter`]: what a thread
//! completes in one burst of ready work, and what other threads complete
//! meanwhile, batch into a single socket write.
//!
//! Connection bookkeeping is reaped in both modes, and an optional idle
//! timeout drops connections with no traffic (counted in
//! [`ServerStats::idle_reaped`]).

use crate::admission::{AdmissionControl, LimitChange};
use crate::buf::{ConnWriter, DeferScope, SharedWriter};
use crate::config::{ExecutionModel, NetworkModel, ServerConfig};
use crate::error::RpcError;
use crate::queue::DispatchQueue;
use crate::reactor::{
    spawn_blocking_runner, CloseReason, ConnDriver, Drive, Reactor, ReactorConfig,
};
use crate::service::{RequestContext, Service};
use crate::stats::{shed_event, ServerStats};
use musuite_check::atomic::{AtomicBool, Ordering};
use musuite_check::sync::Mutex;
use musuite_check::thread::{Builder, JoinHandle};
use musuite_codec::batch::decode_batch;
use musuite_codec::frame::FrameKind;
use musuite_codec::{Frame, Status};
use musuite_telemetry::admission::AdmissionEvent;
use musuite_telemetry::breakdown::Stage;
use musuite_telemetry::clock::Clock;
use musuite_telemetry::counters::{OsOp, OsOpCounters};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

/// A `BlockingPerConn` connection: a handle on its socket, to interrupt
/// the poller's blocking read at shutdown, and the poller to join.
struct LiveConn {
    stream: TcpStream,
    poller: JoinHandle<()>,
}

/// Connection bookkeeping in `BlockingPerConn` mode; the reactor tracks
/// its own connections.
type ConnTable = Mutex<Vec<LiveConn>>;

/// Removes (and joins) every poller that has exited. Called
/// opportunistically from the accept loop and from accessors, so a
/// long-lived server shedding short-lived connections holds state
/// proportional to *live* connections, not historical ones.
fn reap_exited(table: &ConnTable) {
    let done: Vec<LiveConn> =
        table.lock().extract_if(.., |conn| conn.poller.is_finished()).collect();
    for conn in done {
        let _ = conn.poller.join();
    }
}

/// A running RPC server.
///
/// Dropping the server shuts it down and joins every thread it spawned.
/// Shutdown **aborts** for callers — every connection closes at once, so
/// their in-flight calls fail with `ConnectionClosed`; requests already
/// queued still run (the worker pool drains), but into closed sockets.
///
/// # Examples
///
/// ```
/// use musuite_rpc::{Server, ServerConfig, Service, RequestContext};
/// use std::sync::Arc;
///
/// struct Echo;
/// impl Service for Echo {
///     fn call(&self, mut ctx: RequestContext) {
///         let bytes = ctx.take_payload();
///         ctx.respond_ok(bytes);
///     }
/// }
///
/// # fn main() -> Result<(), musuite_rpc::RpcError> {
/// let server = Server::spawn(ServerConfig::default(), Arc::new(Echo))?;
/// assert_ne!(server.local_addr().port(), 0);
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct Server {
    local_addr: SocketAddr,
    pipeline: Arc<Pipeline>,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    table: Arc<ConnTable>,
    reactor: Option<Arc<Reactor>>,
}

impl Server {
    /// Binds the configured address and spawns the accept loop, the
    /// network edge (per-connection pollers or a shared reactor), and the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Returns an error if the bind address is invalid or in use.
    pub fn spawn(config: ServerConfig, service: Arc<dyn Service>) -> Result<Server, RpcError> {
        let listener = TcpListener::bind(config.addr())?;
        let local_addr = listener.local_addr()?;
        let stats = ServerStats::new();
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue: DispatchQueue<RequestContext> =
            DispatchQueue::new(config.queue_capacity_value(), config.wait_mode_value())
                .with_breakdown(stats.breakdown().clone());
        // The gate's capacity matches the queue's: under `Fixed` the
        // concurrency limit is the queue bound (the seed's shed semantics
        // routed through the priority thresholds); under `Adaptive` the
        // limit floats below it on observed queue delay.
        let admission =
            AdmissionControl::new(config.admission_model_value(), config.queue_capacity_value());
        let pipeline = Arc::new(Pipeline {
            stats,
            queue,
            service,
            model: config.execution_model_value(),
            admission,
            clock: Clock::new(),
        });
        let table = Arc::new(ConnTable::default());
        let reactor = match config.network_model_value() {
            NetworkModel::BlockingPerConn => None,
            NetworkModel::SharedPollers { pollers } => {
                Some(Arc::new(Reactor::start(ReactorConfig {
                    pollers,
                    wait_mode: config.wait_mode_value(),
                    sweep_budget: config.sweep_budget_value(),
                    idle_timeout: config.idle_timeout_value(),
                })))
            }
        };

        let mut worker_handles = Vec::new();
        if pipeline.model == ExecutionModel::Dispatch {
            let batch = config.batch_policy_value();
            for i in 0..config.worker_count() {
                let pipeline = pipeline.clone();
                OsOpCounters::global().incr(OsOp::Clone);
                worker_handles.push(
                    Builder::new()
                        .name(format!("musuite-worker-{i}"))
                        .spawn(move || {
                            let Pipeline { queue, service, stats, .. } = &*pipeline;
                            // Writes wait until the queue runs dry: `pop`
                            // flushes before it parks.
                            let _outbox = DeferScope::enter();
                            // One park/unpark per batch, drained into the
                            // one buffer this worker keeps. With batching
                            // off every batch is a single request.
                            let mut members = Vec::with_capacity(batch.max_size().min(64));
                            while let Some(reason) = queue.pop_batch_into(
                                &mut members,
                                batch.max_size(),
                                batch.max_delay(),
                            ) {
                                if batch.is_on() {
                                    stats.batching().record_batch(members.len(), reason);
                                }
                                pipeline.screen_dequeued(&mut members);
                                if members.len() > 1 {
                                    service.call_batch(members.drain(..));
                                } else if let Some(ctx) = members.pop() {
                                    service.call(ctx);
                                }
                            }
                        })
                        .expect("spawn worker thread"), // lint: allow(expect): server cannot run short-handed
                );
            }
        }

        let accept_handle = {
            let shutdown = shutdown.clone();
            let pipeline = pipeline.clone();
            let table = table.clone();
            let reactor = reactor.clone();
            let idle_timeout = config.idle_timeout_value();
            OsOpCounters::global().incr(OsOp::Clone);
            Builder::new()
                .name("musuite-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        // Retire bookkeeping for pollers that exited since
                        // the last accept before adding the new one.
                        reap_exited(&table);
                        let Ok(stream) = stream else { continue };
                        OsOpCounters::global().incr(OsOp::OpenAt);
                        stream.set_nodelay(true).ok();
                        let Ok(read_half) = stream.try_clone() else { continue };
                        let stats = pipeline.stats.coalesce().clone();
                        let driver = ServerConnDriver {
                            writer: Arc::new(ConnWriter::with_stats(stream, stats)),
                            pipeline: pipeline.clone(),
                        };
                        if let Some(reactor) = &reactor {
                            // Shared-poller mode: the reactor owns the read
                            // half; no thread is spawned for this conn.
                            let _ = reactor.register(read_half, Box::new(driver));
                            continue;
                        }
                        // Baseline idle reaping: the poller's blocking wait
                        // for the next frame times out and it exits.
                        read_half.set_read_timeout(idle_timeout).ok();
                        let Ok(conn_handle) = read_half.try_clone() else { continue };
                        let poller = spawn_blocking_runner(
                            "musuite-poller",
                            read_half,
                            driver,
                            shutdown.clone(),
                        );
                        let mut live = table.lock();
                        if shutdown.load(Ordering::Acquire) {
                            // Registered after `shutdown` swept the table.
                            let _ = conn_handle.shutdown(Shutdown::Both);
                        }
                        live.push(LiveConn { stream: conn_handle, poller });
                    }
                })
                .expect("spawn accept thread") // lint: allow(expect): server is inert without acceptor
        };

        Ok(Server {
            local_addr,
            pipeline,
            shutdown,
            accept_handle: Some(accept_handle),
            worker_handles,
            table,
            reactor,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared telemetry for this server.
    pub fn stats(&self) -> &ServerStats {
        &self.pipeline.stats
    }

    /// Number of live connections. Per-connection mode reaps exited
    /// pollers before counting; shared-poller mode asks the reactor.
    pub fn connection_count(&self) -> usize {
        match &self.reactor {
            Some(reactor) => reactor.live_connections(),
            None => {
                reap_exited(&self.table);
                self.table.lock().len()
            }
        }
    }

    /// Number of threads serving the network edge right now: the fixed
    /// poller count under [`NetworkModel::SharedPollers`], one per live
    /// connection under [`NetworkModel::BlockingPerConn`]. This is the
    /// quantity the paper's Fig. 8 holds constant and the scaling test
    /// asserts on.
    pub fn network_threads(&self) -> usize {
        match &self.reactor {
            Some(reactor) => reactor.poller_count(),
            None => self.connection_count(),
        }
    }

    /// The shared reactor, when running under
    /// [`NetworkModel::SharedPollers`] (for sweep statistics).
    pub fn reactor(&self) -> Option<&Reactor> {
        self.reactor.as_deref()
    }

    /// The admission gate: current concurrency limit and in-flight count.
    pub fn admission(&self) -> &AdmissionControl {
        &self.pipeline.admission
    }

    /// Stops accepting, closes every connection, drains the worker pool,
    /// and joins all threads. Idempotent.
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        // Unblock pollers parked in read().
        for conn in self.table.lock().iter() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        if let Some(reactor) = &self.reactor {
            reactor.shutdown();
        }
        self.pipeline.queue.close();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        let conns = std::mem::take(&mut *self.table.lock());
        for conn in conns {
            let _ = conn.poller.join();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("stats", self.stats())
            .finish()
    }
}

/// What every network thread and worker of one server shares; its methods
/// are the request pipeline, from a decoded frame to a running handler.
struct Pipeline {
    stats: ServerStats,
    queue: DispatchQueue<RequestContext>,
    service: Arc<dyn Service>,
    model: ExecutionModel,
    admission: AdmissionControl,
    clock: Clock,
}

impl Pipeline {
    /// Routes one decoded frame, read off the connection `writer` answers
    /// on, through the request pipeline. `Request` frames become one
    /// context; `Batch` frames are
    /// unpacked into per-member contexts so admission, shedding, and expiry
    /// stay *per sub-request* (a merged frame must account identically to
    /// the same requests sent individually). A batch envelope that fails to
    /// decode despite the outer checksum is a peer bug and is dropped whole;
    /// anything else (responses on a server connection) is ignored.
    fn dispatch_frame(&self, frame: Frame, received: u64, writer: &SharedWriter) {
        let admit = |request: Frame| {
            let stats = self.stats.clone();
            self.admit_and_dispatch(RequestContext::new(request, received, writer.clone(), stats))
        };
        match frame.header.kind {
            FrameKind::Request => admit(frame),
            FrameKind::Batch => {
                let Ok(entries) = decode_batch(&frame.payload) else { return };
                for entry in entries {
                    let member = Frame::request(entry.request_id, entry.method, entry.payload);
                    admit(member.with_budget(entry.deadline_budget_us, entry.priority));
                }
            }
            FrameKind::Response => {}
        }
    }

    /// The admission pipeline: count the request, refuse arrivals whose
    /// deadline already passed, pass the priority gate, then hand the
    /// context to the execution model. The admission permit rides inside
    /// the context and is released when the context drops (response sent,
    /// context abandoned, or handler panic), so the in-flight count can
    /// never leak.
    fn admit_and_dispatch(&self, mut ctx: RequestContext) {
        self.stats.record_request();
        // Arrival-expiry: the budget was spent upstream, so answering now is
        // cheaper than ever touching the gate or the queue.
        if ctx.is_expired() {
            self.stats.record_admission(AdmissionEvent::ExpiredAtArrival);
            ctx.respond_err(Status::DeadlineExpired, "deadline expired on arrival");
            return;
        }
        let priority = ctx.priority();
        match self.admission.try_admit(priority) {
            Some(permit) => ctx.attach_permit(permit),
            None => {
                self.stats.record_admission(shed_event(priority));
                ctx.respond_err(Status::Unavailable, "admission limit reached");
                return;
            }
        }
        match self.model {
            ExecutionModel::Inline => self.service.call(ctx),
            ExecutionModel::Dispatch => {
                // The queue holds the context by value; a failed push sheds
                // load so saturation does not grow an unbounded backlog.
                if let Err(ctx) = self.queue.try_push(ctx) {
                    self.stats.record_rejected();
                    ctx.respond_err(Status::Unavailable, "dispatch queue full");
                }
            }
        }
    }

    /// Per-member dequeue bookkeeping: feeds the queue-delay signal (what
    /// the breakdown's Block stage samples) to the adaptive limiter, then
    /// screens out requests whose deadline expired while queued — the
    /// caller has given up, so abandoned work must never occupy a worker.
    /// An expired member leaves `members`, answered; the batch never
    /// leaves the queue, so one stale request cannot discard its
    /// batchmates.
    fn screen_dequeued(&self, members: &mut Vec<RequestContext>) {
        let expired = members.extract_if(.., |ctx| {
            let delay = self.clock.delta(ctx.received_at_ns(), self.clock.now_ns());
            match self.admission.note_dequeue(delay) {
                Some(LimitChange::Raised) => {
                    self.stats.record_admission(AdmissionEvent::LimitRaised)
                }
                Some(LimitChange::Lowered) => {
                    self.stats.record_admission(AdmissionEvent::LimitLowered)
                }
                None => {}
            }
            ctx.is_expired()
        });
        for ctx in expired {
            self.stats.record_admission(AdmissionEvent::ExpiredInQueue);
            ctx.respond_err(Status::DeadlineExpired, "deadline expired in queue");
        }
    }
}

/// The server side of one connection, whichever runner feeds it: a
/// reactor sweep, or a poller thread of the connection's own.
struct ServerConnDriver {
    writer: SharedWriter,
    pipeline: Arc<Pipeline>,
}

impl ConnDriver for ServerConnDriver {
    // Runs on the shared sweep thread behind dyn dispatch, which the
    // static call graph cannot trace — so the nonblocking obligation is
    // declared here, at the impl, rather than inherited from the root.
    #[musuite_marker::nonblocking]
    fn on_frame(&mut self, frame: Frame, rx_start_ns: u64) -> Drive {
        let Pipeline { stats, clock, .. } = &*self.pipeline;
        // Everything from the frame's first byte to here is Net_rx.
        let received = clock.now_ns();
        stats.breakdown().record(Stage::NetRx, clock.delta(rx_start_ns, received));
        // Inline runs the handler on the network thread itself — the
        // paper's in-line design, on either kind of network thread.
        self.pipeline.dispatch_frame(frame, received, &self.writer);
        Drive::Continue
    }

    #[musuite_marker::nonblocking]
    fn on_close(&mut self, reason: CloseReason) {
        if reason == CloseReason::Idle {
            self.pipeline.stats.record_idle_reaped();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CallOptions, RpcClient};
    use crate::config::WaitMode;
    use musuite_codec::Priority;
    use std::time::Duration;

    struct Echo;
    impl Service for Echo {
        fn call(&self, mut ctx: RequestContext) {
            let bytes = ctx.take_payload();
            ctx.respond_ok(bytes);
        }
    }

    #[test]
    fn spawn_and_shutdown() {
        let server = Server::spawn(ServerConfig::default(), Arc::new(Echo)).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn echo_roundtrip_dispatch() {
        let server = Server::spawn(ServerConfig::default(), Arc::new(Echo)).unwrap();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        let reply = client.call(1, b"hello".to_vec()).unwrap();
        assert_eq!(reply, b"hello");
        assert_eq!(server.stats().requests(), 1);
        assert_eq!(server.stats().responses(), 1);
    }

    #[test]
    fn echo_roundtrip_inline() {
        let mut config = ServerConfig::default();
        config.execution_model(ExecutionModel::Inline);
        let server = Server::spawn(config, Arc::new(Echo)).unwrap();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.call(1, b"inline".to_vec()).unwrap(), b"inline");
    }

    #[test]
    fn echo_roundtrip_polling_workers() {
        let mut config = ServerConfig::default();
        config.wait_mode(WaitMode::Poll).workers(2);
        let server = Server::spawn(config, Arc::new(Echo)).unwrap();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.call(1, b"poll".to_vec()).unwrap(), b"poll");
    }

    #[test]
    fn shared_pollers_echo_across_execution_and_wait_modes() {
        for (execution, wait) in [
            (ExecutionModel::Dispatch, WaitMode::Block),
            (ExecutionModel::Dispatch, WaitMode::Adaptive),
            (ExecutionModel::Inline, WaitMode::Poll),
        ] {
            let mut config = ServerConfig::default();
            config
                .network_model(NetworkModel::SharedPollers { pollers: 2 })
                .execution_model(execution)
                .wait_mode(wait)
                .workers(2);
            let server = Server::spawn(config, Arc::new(Echo)).unwrap();
            assert_eq!(server.network_threads(), 2);
            let client = RpcClient::connect(server.local_addr()).unwrap();
            for i in 0..50u32 {
                let payload = i.to_le_bytes().to_vec();
                assert_eq!(
                    client.call(1, payload.clone()).unwrap(),
                    payload,
                    "under {execution:?}/{wait:?}"
                );
            }
            assert_eq!(server.stats().responses(), 50);
            // Sweep counters are recorded at end-of-sweep, which can lag
            // the response by one sweep — poll briefly instead of racing.
            let reactor = server.reactor().unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            while reactor.stats().frames() < 50 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "reactor saw {} frames under {execution:?}/{wait:?}",
                    reactor.stats().frames()
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(reactor.stats().registered(), 1);
        }
    }

    #[test]
    fn shared_pollers_network_threads_stay_fixed_across_conns() {
        let mut config = ServerConfig::default();
        config.network_model(NetworkModel::SharedPollers { pollers: 2 }).workers(2);
        let server = Server::spawn(config, Arc::new(Echo)).unwrap();
        let clients: Vec<_> =
            (0..8).map(|_| RpcClient::connect(server.local_addr()).unwrap()).collect();
        for (i, client) in clients.iter().enumerate() {
            client.call(1, vec![i as u8]).unwrap();
        }
        assert_eq!(server.connection_count(), 8);
        assert_eq!(server.network_threads(), 2, "poller pool must not grow with conns");
    }

    #[test]
    fn many_sequential_calls_on_one_connection() {
        let server = Server::spawn(ServerConfig::default(), Arc::new(Echo)).unwrap();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        for i in 0..200u32 {
            let payload = i.to_le_bytes().to_vec();
            assert_eq!(client.call(2, payload.clone()).unwrap(), payload);
        }
        assert_eq!(server.stats().responses(), 200);
        // Every response was queued through the coalescing writer.
        assert_eq!(server.stats().coalesce().frames(), 200);
        assert!(server.stats().coalesce().flushes() <= 200);
    }

    #[test]
    fn concurrent_clients() {
        let server = Arc::new(Server::spawn(ServerConfig::default(), Arc::new(Echo)).unwrap());
        let mut handles = Vec::new();
        for t in 0..8 {
            let addr = server.local_addr();
            handles.push(std::thread::spawn(move || {
                let client = RpcClient::connect(addr).unwrap();
                for i in 0..50u32 {
                    let payload = (t * 1000 + i).to_le_bytes().to_vec();
                    assert_eq!(client.call(3, payload.clone()).unwrap(), payload);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.stats().responses(), 400);
    }

    fn closed_connections_reaped_case(network: NetworkModel) {
        let mut config = ServerConfig::default();
        config.network_model(network);
        let server = Server::spawn(config, Arc::new(Echo)).unwrap();
        for _ in 0..5 {
            let client = RpcClient::connect(server.local_addr()).unwrap();
            client.call(1, b"hi".to_vec()).unwrap();
            drop(client); // hangs up; the server notices shortly after
        }
        // The hang-ups are noticed asynchronously; poll until the
        // bookkeeping drains rather than racing a fixed sleep.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.connection_count() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "dead connections were never reaped under {network:?}: {} still tracked",
                server.connection_count()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // A fresh connection still works and is tracked.
        let client = RpcClient::connect(server.local_addr()).unwrap();
        client.call(1, b"again".to_vec()).unwrap();
        assert_eq!(server.connection_count(), 1);
    }

    #[test]
    fn closed_connections_are_reaped() {
        closed_connections_reaped_case(NetworkModel::BlockingPerConn);
    }

    #[test]
    fn shared_pollers_reap_closed_connections() {
        closed_connections_reaped_case(NetworkModel::SharedPollers { pollers: 1 });
    }

    fn idle_reap_case(network: NetworkModel) {
        let mut config = ServerConfig::default();
        config.network_model(network).idle_timeout(Duration::from_millis(75));
        let server = Server::spawn(config, Arc::new(Echo)).unwrap();
        let idle = RpcClient::connect(server.local_addr()).unwrap();
        idle.call(1, b"warm".to_vec()).unwrap();
        // No traffic for several timeouts: the server must drop the conn.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.stats().idle_reaped() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "idle connection never reaped under {network:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.stats().idle_reaped(), 1);
        // The reaped client's next call fails...
        assert!(idle.call(1, b"dead".to_vec()).is_err());
        // ...but fresh connections are unaffected.
        let fresh = RpcClient::connect(server.local_addr()).unwrap();
        assert_eq!(fresh.call(1, b"alive".to_vec()).unwrap(), b"alive");
    }

    #[test]
    fn idle_connections_reaped_blocking_per_conn() {
        idle_reap_case(NetworkModel::BlockingPerConn);
    }

    #[test]
    fn idle_connections_reaped_shared_pollers() {
        idle_reap_case(NetworkModel::SharedPollers { pollers: 2 });
    }

    fn breakdown_stages_case(network: NetworkModel) {
        let mut config = ServerConfig::default();
        config.network_model(network);
        let server = Server::spawn(config, Arc::new(Echo)).unwrap();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        for _ in 0..20 {
            client.call(1, vec![0u8; 128]).unwrap();
        }
        let breakdown = server.stats().breakdown();
        assert_eq!(breakdown.histogram(Stage::NetRx).count(), 20);
        assert_eq!(breakdown.histogram(Stage::Block).count(), 20);
        assert_eq!(breakdown.histogram(Stage::Net).count(), 20);
        // The final NetTx sample is recorded just after the reply bytes
        // reach the kernel, so it may trail the client's receive by a hair.
        assert!(breakdown.histogram(Stage::NetTx).count() >= 19);
    }

    #[test]
    fn breakdown_stages_populated_after_traffic() {
        breakdown_stages_case(NetworkModel::BlockingPerConn);
    }

    #[test]
    fn breakdown_stages_populated_under_shared_pollers() {
        breakdown_stages_case(NetworkModel::SharedPollers { pollers: 2 });
    }

    #[test]
    fn service_error_surfaces_to_client() {
        struct Failing;
        impl Service for Failing {
            fn call(&self, ctx: RequestContext) {
                ctx.respond_err(Status::AppError, "deliberate");
            }
        }
        let server = Server::spawn(ServerConfig::default(), Arc::new(Failing)).unwrap();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        let err = client.call(1, Vec::new()).unwrap_err();
        assert!(matches!(err, RpcError::Remote { status: Status::AppError, .. }));
    }

    #[test]
    fn handler_panic_safety_via_drop_response() {
        // A handler that drops the context without responding must still
        // unblock the client (AppError from the Drop impl).
        struct Dropper;
        impl Service for Dropper {
            fn call(&self, ctx: RequestContext) {
                drop(ctx);
            }
        }
        let server = Server::spawn(ServerConfig::default(), Arc::new(Dropper)).unwrap();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        let err = client.call(1, Vec::new()).unwrap_err();
        assert!(matches!(err, RpcError::Remote { status: Status::AppError, .. }));
    }

    #[test]
    fn garbage_bytes_close_connection_without_crash() {
        use std::io::Write;
        let server = Server::spawn(ServerConfig::default(), Arc::new(Echo)).unwrap();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"this is not a frame at all............").unwrap();
        // The poller detects bad magic and drops the connection; a healthy
        // client must still work.
        let client = RpcClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.call(1, b"ok".to_vec()).unwrap(), b"ok");
    }

    /// Holds every request until released, so tests can pin the gate's
    /// in-flight count at an exact value.
    struct GatedService {
        release: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    }
    impl GatedService {
        fn new() -> (Arc<Self>, Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>) {
            let release = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
            (Arc::new(GatedService { release: release.clone() }), release)
        }
    }
    impl Service for GatedService {
        fn call(&self, ctx: RequestContext) {
            let (lock, cvar) = &*self.release;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cvar.wait(open).unwrap();
            }
            drop(open);
            ctx.respond_ok(Vec::new());
        }
    }
    fn open_gate(release: &(std::sync::Mutex<bool>, std::sync::Condvar)) {
        let (lock, cvar) = release;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }

    #[test]
    fn sheddable_class_is_shed_while_normal_still_clears_the_gate() {
        use crate::error::FailureKind;
        let (service, release) = GatedService::new();
        let mut config = ServerConfig::default();
        // Capacity 4: thresholds are Critical 4, Normal 3, Sheddable 2.
        config.workers(2).queue_capacity(4);
        let server = Server::spawn(config, service).unwrap();
        let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
        let (tx, rx) = std::sync::mpsc::channel();
        // Two held requests pin in-flight exactly at the Sheddable
        // threshold while leaving Normal headroom.
        for _ in 0..2 {
            let tx = tx.clone();
            client.call_async(1, Vec::new(), move |result| {
                tx.send(result).unwrap();
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.admission().inflight() < 2 {
            assert!(std::time::Instant::now() < deadline, "held requests never admitted");
            std::thread::sleep(Duration::from_millis(2));
        }
        // A sheddable arrival is refused at the gate...
        let err = client
            .call_opts(
                1,
                Vec::new(),
                CallOptions { priority: Priority::Sheddable, ..Default::default() },
            )
            .expect_err("sheddable must be shed at threshold");
        assert_eq!(err.failure_kind(), FailureKind::Shed, "got {err:?}");
        assert_eq!(server.stats().shed(Priority::Sheddable), 1);
        assert_eq!(server.stats().shed(Priority::Normal), 0);
        // ...while a normal-class arrival still clears the gate.
        {
            let tx = tx.clone();
            client.call_async(1, Vec::new(), move |result| {
                tx.send(result).unwrap();
            });
        }
        drop(tx);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.admission().inflight() < 3 {
            assert!(std::time::Instant::now() < deadline, "normal request never admitted");
            std::thread::sleep(Duration::from_millis(2));
        }
        open_gate(&release);
        let mut served = 0;
        while let Ok(result) = rx.recv() {
            result.unwrap();
            served += 1;
        }
        assert_eq!(served, 3, "all admitted requests must complete");
        assert_eq!(server.stats().shed_total(), 1);
    }

    /// Counts the requests that reach it, and takes 40 ms over each.
    struct Tracking {
        ran: Arc<musuite_check::atomic::AtomicU64>,
    }
    impl Service for Tracking {
        fn call(&self, ctx: RequestContext) {
            self.ran.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(40));
            ctx.respond_ok(Vec::new());
        }
    }

    #[test]
    fn expired_requests_are_dropped_at_dequeue_without_running() {
        let ran = Arc::new(musuite_check::atomic::AtomicU64::new(0));
        let mut config = ServerConfig::default();
        config.workers(1).queue_capacity(4);
        let server = Server::spawn(config, Arc::new(Tracking { ran: ran.clone() })).unwrap();
        let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
        // Occupy the lone worker with an unbounded request...
        client.call_async(1, Vec::new(), |_| {});
        // ...then queue a request whose budget expires long before the
        // worker frees up. It must be answered without ever running.
        let err = client
            .call_opts(1, Vec::new(), CallOptions::within(Duration::from_millis(5)))
            .expect_err("tiny-budget request behind a 40ms hog cannot succeed");
        assert!(
            matches!(
                err,
                RpcError::TimedOut | RpcError::Remote { status: Status::DeadlineExpired, .. }
            ),
            "got {err:?}"
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.stats().deadline_expired() == 0 {
            assert!(std::time::Instant::now() < deadline, "expired request never dropped");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.stats().deadline_expired(), 1);
        assert_eq!(ran.load(Ordering::Relaxed), 1, "the expired request must never execute");
    }

    #[test]
    fn batched_dispatch_serves_traffic_and_records_occupancy() {
        use crate::config::BatchPolicy;
        let mut config = ServerConfig::default();
        config.workers(2).batch_policy(BatchPolicy::new(8, Duration::from_micros(50)));
        let server = Server::spawn(config, Arc::new(Echo)).unwrap();
        let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..100u32 {
            let tx = tx.clone();
            client.call_async(1, i.to_le_bytes().to_vec(), move |result| {
                tx.send(result.unwrap()).unwrap();
            });
        }
        drop(tx);
        let mut replies = 0;
        while rx.recv().is_ok() {
            replies += 1;
        }
        assert_eq!(replies, 100);
        let batching = server.stats().batching();
        assert_eq!(batching.members(), 100, "every request must flow through a batch");
        assert!(batching.batches() >= 1 && batching.batches() <= 100);
        assert!(batching.max_occupancy() <= 8, "policy max_size must bound occupancy");
    }

    #[test]
    fn batched_dispatch_expired_members_dropped_not_batchmates() {
        use crate::config::BatchPolicy;
        let ran = Arc::new(musuite_check::atomic::AtomicU64::new(0));
        let mut config = ServerConfig::default();
        config
            .workers(1)
            .queue_capacity(8)
            .batch_policy(BatchPolicy::new(4, Duration::ZERO));
        let server = Server::spawn(config, Arc::new(Tracking { ran: ran.clone() })).unwrap();
        let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
        // Occupy the lone worker...
        client.call_async(1, Vec::new(), |_| {});
        std::thread::sleep(Duration::from_millis(5));
        // ...then queue one request that will expire behind the hog and
        // one unbounded batchmate that must still execute.
        client.call_async_opts(
            1,
            Vec::new(),
            CallOptions::within(Duration::from_millis(5)),
            |_| {},
        );
        let (tx, rx) = std::sync::mpsc::channel();
        client.call_async(1, Vec::new(), move |result| {
            tx.send(result).unwrap();
        });
        rx.recv().unwrap().unwrap();
        assert_eq!(server.stats().deadline_expired(), 1, "expired member dropped from batch");
        assert_eq!(ran.load(Ordering::Relaxed), 2, "batchmate must survive its expired peer");
    }

    #[test]
    fn adaptive_admission_serves_traffic_with_limit_in_bounds() {
        use crate::config::AdmissionModel;
        let mut config = ServerConfig::default();
        config.admission_model(AdmissionModel::Adaptive).workers(2).queue_capacity(64);
        let server = Server::spawn(config, Arc::new(Echo)).unwrap();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        for i in 0..200u32 {
            let payload = i.to_le_bytes().to_vec();
            assert_eq!(client.call(1, payload.clone()).unwrap(), payload);
        }
        let limit = server.admission().limit();
        assert!(
            (1..=64).contains(&limit),
            "adaptive limit must stay within [1, capacity], got {limit}"
        );
        // Uncontended sequential traffic sees no queue delay, so the
        // limiter must not have collapsed the limit.
        assert_eq!(server.stats().shed_total(), 0);
    }
}
