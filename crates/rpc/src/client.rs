//! The RPC client: synchronous calls and asynchronous, callback-completed
//! calls with explicit in-flight state.
//!
//! Each client owns one TCP connection whose responses are picked up by
//! either a dedicated **response pick-up thread** (the paper's "resp.
//! pick-up thread: `<block>`" in Fig. 8, via [`RpcClient::connect`]) or a
//! **shared reactor** ([`RpcClient::connect_with`]) that sweeps many
//! client connections from a fixed poller pool — so a wide fan-out does
//! not cost one thread per leaf. Its edge (`reactor::Edge`) makes, splits,
//! runs and closes the connection; the client only supplies the driver.
//! Either way, arriving responses are matched to in-flight requests through
//! a shared table keyed by request id, and either wake the synchronous
//! caller or run the asynchronous completion callback in place. Many
//! threads may issue calls on one client concurrently; requests are
//! multiplexed on the connection.
//!
//! Response payloads are [`Bytes`] slices of the connection's receive
//! buffer — they travel from the socket to the caller without being
//! copied. A request's payload is a [`Body`]: a typed message's encoder
//! serializes it straight into the connection's pending buffer, and bytes
//! already encoded are copied there.
//!
//! In-flight hygiene: synchronous deadline waits use an absolute deadline
//! (spurious wakeups cannot extend the timeout), and asynchronous calls
//! may register a deadline with the connection's lazily-spawned timer
//! thread (`rpc::timer`), which fails overdue entries with
//! [`RpcError::TimedOut`] and removes them from the in-flight table —
//! without it, a leaf that never responds would leak its table entry and
//! callback forever.

use crate::buf::{flush_outbox, Body, SharedWriter};
use crate::error::RpcError;
use crate::fanout::Attempt;
use crate::fault::ClientFaults;
use crate::reactor::{CloseReason, ConnDriver, Drive, Edge, Reactor};
use crate::timer::{Fate, Timer};
use bytes::Bytes;
use musuite_check::atomic::{AtomicBool, AtomicU64, Ordering};
use musuite_codec::frame::FrameHeader;
use musuite_codec::{Frame, FrameKind, Priority, Status};
use musuite_telemetry::sync::{CountedCondvar, CountedMutex};
use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a caller may say about one call beyond its method and payload.
/// The default is an unbounded call in the [`Priority::Normal`] class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CallOptions {
    /// How long the caller waits: the call fails with
    /// [`RpcError::TimedOut`] once this has passed, and what is left of it
    /// travels in the frame header as the budget every downstream hop
    /// inherits. `None` is unbounded.
    pub timeout: Option<Duration>,
    /// The admission class the server's overload gate sees.
    pub priority: Priority,
}

impl CallOptions {
    /// A [`Priority::Normal`] call bounded by `timeout`.
    pub fn within(timeout: Duration) -> CallOptions {
        CallOptions { timeout: Some(timeout), priority: Priority::Normal }
    }
}

/// Completion callback for [`RpcClient::call_async`]; runs on the response
/// pick-up thread.
pub type Callback = Box<dyn FnOnce(Result<Bytes, RpcError>) + Send + 'static>;

/// What completes one call: its in-flight entry.
pub(crate) enum Pending {
    /// A blocking caller's wake-up slot.
    Sync(Arc<SyncSlot>),
    /// A caller's boxed closure.
    Async(Callback),
    /// One attempt of a scatter: it names the scatter's slot and boxes
    /// nothing.
    Attempt(Attempt),
}

impl Pending {
    pub(crate) fn complete(self, result: Result<Bytes, RpcError>) {
        match self {
            Pending::Sync(slot) => slot.complete(result),
            Pending::Async(callback) => callback(result),
            Pending::Attempt(attempt) => attempt.done(result),
        }
    }
}

pub(crate) struct SyncSlot {
    result: CountedMutex<Option<Result<Bytes, RpcError>>>,
    ready: CountedCondvar,
}

impl SyncSlot {
    fn new() -> Arc<SyncSlot> {
        Arc::new(SyncSlot { result: CountedMutex::new(None), ready: CountedCondvar::new() })
    }

    fn complete(&self, result: Result<Bytes, RpcError>) {
        *self.result.lock() = Some(result);
        self.ready.notify_one();
    }

    fn wait(&self, timeout: Option<Duration>) -> Result<Bytes, RpcError> {
        // On a loop thread the request may still sit in the outbox.
        flush_outbox();
        // The deadline is absolute: a spurious wakeup re-waits only for
        // the *remaining* time instead of restarting the full timeout.
        let deadline = timeout.map(|limit| Instant::now() + limit);
        let mut guard = self.result.lock();
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            match deadline {
                None => self.ready.wait(&mut guard),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(RpcError::TimedOut);
                    }
                    if self.ready.wait_for(&mut guard, deadline - now) {
                        // Timed out at the deadline. One final take: a
                        // completion that raced the timeout still wins,
                        // so a delivered response is never discarded.
                        return guard.take().unwrap_or(Err(RpcError::TimedOut));
                    }
                }
            }
        }
    }
}

type InflightTable = Arc<CountedMutex<HashMap<u64, Pending>>>;

/// One request on its way out, but for its payload: what the send path
/// needs of it.
struct Outgoing {
    request_id: u64,
    method: u32,
    deadline: Option<Instant>,
    priority: Priority,
}

/// Remaining-budget wire encoding of an absolute deadline, computed as
/// the frame is serialized so queueing before the send decays it:
/// `None` encodes as 0 (no deadline); an already-expired deadline floors
/// at 1 µs so the receiver sees it as ~expired rather than unbounded.
pub(crate) fn budget_for(deadline: Option<Instant>) -> u32 {
    match deadline {
        None => 0,
        Some(deadline) => {
            let remaining = deadline.saturating_duration_since(Instant::now()).as_micros();
            remaining.clamp(1, u128::from(u32::MAX)) as u32
        }
    }
}

/// A connection to one RPC server.
///
/// Shutdown and drop **abort**: every call still in flight completes
/// exactly once with [`RpcError::ConnectionClosed`]; nothing is waited for.
///
/// # Examples
///
/// See [`crate`]-level documentation for an end-to-end example.
pub struct RpcClient {
    peer_addr: SocketAddr,
    writer: SharedWriter,
    next_id: AtomicU64,
    inflight: InflightTable,
    closed: Arc<AtomicBool>,
    /// Call deadlines to enforce, by request id.
    timer: Timer<u64>,
    /// What a fault plan does to every frame this client sends.
    faults: Option<ClientFaults>,
    /// What picks the responses up. Dropped after the connection is cut,
    /// it joins the connection's own pick-up thread, if it has one.
    edge: Edge,
}

impl RpcClient {
    /// Connects to `addr` and starts the response pick-up thread.
    ///
    /// # Errors
    ///
    /// Returns an error if the connection cannot be established.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<RpcClient, RpcError> {
        RpcClient::connect_with(addr, None, None)
    }

    /// The general connect. `faults` attaches a per-leaf fault-injection
    /// view: an armed plan may refuse the connect outright or perturb
    /// subsequent sends. `reactor` has responses picked up by a shared
    /// [`Reactor`] instead of a dedicated thread: a fan-out registers all
    /// of its leaf connections (and their hedge/alternate replacements)
    /// with one reactor, so the client-side network thread count is the
    /// reactor's fixed poller count regardless of fan-out width. With
    /// `None, None` this is exactly [`RpcClient::connect`].
    ///
    /// # Errors
    ///
    /// Returns an error if the connection cannot be established, the
    /// fault plan refuses it, or the reactor is shutting down.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        faults: Option<ClientFaults>,
        reactor: Option<&Arc<Reactor>>,
    ) -> Result<RpcClient, RpcError> {
        if let Some(faults) = &faults {
            if faults.refuse_connect() {
                return Err(RpcError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "connection refused by fault plan",
                )));
            }
        }
        let inflight: InflightTable = Arc::new(CountedMutex::new(HashMap::new()));
        let closed = Arc::new(AtomicBool::new(false));
        let driver = ClientConnDriver { inflight: inflight.clone(), closed: closed.clone() };
        let edge = Edge::dialing(reactor);
        let (writer, peer_addr) = edge.connect(addr, driver)?;
        let timer = Timer::new("musuite-reaper", {
            let inflight = inflight.clone();
            // An overdue call times out, unless its response claimed the
            // entry first. A cancelled deadline needs nothing: the
            // connection is going down, and its close path fails every
            // in-flight entry.
            move |request_id, fate| {
                if fate == Fate::Due {
                    let pending = inflight.lock().remove(&request_id);
                    if let Some(pending) = pending {
                        pending.complete(Err(RpcError::TimedOut));
                    }
                }
            }
        });
        Ok(RpcClient {
            peer_addr,
            writer,
            next_id: AtomicU64::new(1),
            inflight,
            closed,
            timer,
            faults,
            edge,
        })
    }

    /// A fresh connection to the same server, with the same fault plan and
    /// picked up the same way: what a fan-out replaces a broken one with.
    pub(crate) fn reconnect(&self) -> Result<RpcClient, RpcError> {
        RpcClient::connect_with(self.peer_addr, self.faults.clone(), self.edge.reactor())
    }

    /// The server address this client is connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer_addr
    }

    /// Returns `true` once the connection has failed or been shut down.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Numbers one call and fixes its absolute deadline.
    fn outgoing(&self, method: u32, opts: CallOptions) -> Outgoing {
        Outgoing {
            request_id: self.next_id.fetch_add(1, Ordering::Relaxed),
            method,
            deadline: opts.timeout.map(|limit| Instant::now() + limit),
            priority: opts.priority,
        }
    }

    /// The one way out of this client: sends one request, its payload
    /// written by `body`. Refused once the connection is closed, else
    /// written by the fault plan if one is attached ([`ClientFaults`]),
    /// straight into the connection's pending buffer if not.
    fn send(&self, request: &Outgoing, body: impl Body) -> Result<(), RpcError> {
        if self.is_closed() {
            return Err(RpcError::ConnectionClosed);
        }
        let header =
            FrameHeader::new(FrameKind::Request, request.request_id, request.method, Status::Ok)
                .with_budget(budget_for(request.deadline), request.priority);
        match &self.faults {
            None => self.writer.write_with(&header, |buf| body.encode_into(buf))?,
            Some(faults) => faults.write(&self.writer, &header, |buf| body.encode_into(buf))?,
        }
        Ok(())
    }

    /// Issues a blocking call and waits for the response payload.
    ///
    /// # Errors
    ///
    /// Returns [`RpcError::Remote`] for non-`Ok` response statuses,
    /// [`RpcError::ConnectionClosed`] if the connection drops mid-call, or
    /// an I/O error from the send path.
    pub fn call(&self, method: u32, payload: impl Into<Bytes>) -> Result<Bytes, RpcError> {
        self.call_opts(method, payload.into(), CallOptions::default())
    }

    /// Issues a blocking call under `opts`, its payload written by `body`
    /// (see [`RpcClient::call_async_opts`]). The timeout travels on the
    /// wire as a remaining budget (decayed at each hop) and the priority
    /// drives the server's admission gate.
    ///
    /// # Errors
    ///
    /// As [`RpcClient::call`], plus [`RpcError::TimedOut`] if no response
    /// arrives within `opts.timeout`.
    pub fn call_opts(
        &self,
        method: u32,
        body: impl Body,
        opts: CallOptions,
    ) -> Result<Bytes, RpcError> {
        let request = self.outgoing(method, opts);
        let request_id = request.request_id;
        let slot = SyncSlot::new();
        self.inflight.lock().insert(request_id, Pending::Sync(slot.clone()));
        if let Err(e) = self.send(&request, body) {
            self.inflight.lock().remove(&request_id);
            return Err(e);
        }
        let result = slot.wait(opts.timeout);
        if matches!(result, Err(RpcError::TimedOut)) {
            // Deregister so a timed-out call cannot leak its table entry;
            // a response racing this removal lands in the `None` arm of
            // the pick-up thread's match and is dropped.
            self.inflight.lock().remove(&request_id);
        }
        result
    }

    /// Issues an asynchronous call; `callback` runs on the response
    /// pick-up thread when the response (or a connection failure) arrives.
    ///
    /// This is the mid-tier's leaf-request primitive: the calling worker
    /// returns immediately and "proceeds to process successive requests"
    /// (paper §IV) while RPC state lives in the in-flight table.
    pub fn call_async<F>(&self, method: u32, payload: impl Into<Bytes>, callback: F)
    where
        F: FnOnce(Result<Bytes, RpcError>) + Send + 'static,
    {
        self.call_async_opts(method, payload.into(), CallOptions::default(), callback);
    }

    /// As [`RpcClient::call_async`] under `opts`, with the payload written
    /// by `body` straight into the connection's pending buffer: an encoder
    /// (`|buf| request.encode(buf)`) serializes a typed message there
    /// without a buffer of its own, and bytes already encoded ([`Bytes`],
    /// `Vec<u8>`) are copied there. A body whose payload comes out over
    /// [`MAX_FRAME_LEN`](musuite_codec::MAX_FRAME_LEN) fails this call
    /// alone, with an [`RpcError::Io`] that
    /// [`too_large`](crate::buf::too_large) recognizes.
    ///
    /// With a timeout the callback is guaranteed to run within roughly that
    /// long: if no response arrives in time, the timer thread removes the
    /// in-flight entry and invokes the callback with [`RpcError::TimedOut`]
    /// — this is what bounds a scatter against a stuck leaf. Timeout and
    /// priority both travel in the request frame header so the server's
    /// admission gate and dequeue-expiry can act on them.
    pub fn call_async_opts<F>(&self, method: u32, body: impl Body, opts: CallOptions, callback: F)
    where
        F: FnOnce(Result<Bytes, RpcError>) + Send + 'static,
    {
        self.call_async_inner(method, body, opts, Pending::Async(Box::new(callback)));
    }

    /// The asynchronous call under every public form: `done` is its
    /// in-flight entry. It is entered in the in-flight table, and its
    /// deadline (if any) with the timer, before anything is sent — so a
    /// fast response cannot miss its entry.
    pub(crate) fn call_async_inner(
        &self,
        method: u32,
        body: impl Body,
        opts: CallOptions,
        done: Pending,
    ) {
        let request = self.outgoing(method, opts);
        let request_id = request.request_id;
        self.inflight.lock().insert(request_id, done);
        if let Some(when) = request.deadline {
            self.timer.schedule(when, request_id);
        }
        if let Err(e) = self.send(&request, body) {
            let pending = self.inflight.lock().remove(&request_id);
            if let Some(pending) = pending {
                pending.complete(Err(e));
            }
        }
    }

    /// Number of calls awaiting responses.
    pub fn inflight_len(&self) -> usize {
        self.inflight.lock().len()
    }

    /// Closes the connection; in-flight calls fail with
    /// [`RpcError::ConnectionClosed`]. Idempotent.
    pub fn shutdown(&self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        self.writer.cut();
        self.timer.shutdown();
    }
}

impl Drop for RpcClient {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for RpcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcClient")
            .field("peer_addr", &self.peer_addr)
            .field("inflight", &self.inflight_len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

/// Routes one arriving response frame to its in-flight entry.
fn deliver_response(inflight: &InflightTable, frame: Frame) {
    if frame.header.kind != FrameKind::Response {
        return;
    }
    let pending = inflight.lock().remove(&frame.header.request_id);
    let result = if frame.header.status.is_ok() {
        Ok(frame.payload)
    } else {
        Err(RpcError::Remote {
            status: frame.header.status,
            detail: String::from_utf8_lossy(&frame.payload).into_owned(),
        })
    };
    // A `None` here means we raced with a timeout removal.
    if let Some(pending) = pending {
        pending.complete(result);
    }
}

/// Fails everything still in flight; called once when the connection dies.
fn fail_all_inflight(inflight: &InflightTable) {
    let drained: Vec<Pending> = {
        let mut table = inflight.lock();
        table.drain().map(|(_, pending)| pending).collect()
    };
    for pending in drained {
        pending.complete(Err(RpcError::ConnectionClosed));
    }
}

/// The client side of one connection, whichever arm of its edge picks the
/// responses up: a shared [`Reactor`]'s sweep, or the connection's own
/// pick-up thread.
struct ClientConnDriver {
    inflight: InflightTable,
    closed: Arc<AtomicBool>,
}

impl ConnDriver for ClientConnDriver {
    // Reached via dyn dispatch from the sweep thread; annotated at the
    // impl so musuite-analyze walks these bodies as nonblocking roots.
    #[musuite_marker::nonblocking]
    fn on_frame(&mut self, frame: Frame, _rx_start_ns: u64) -> Drive {
        deliver_response(&self.inflight, frame);
        Drive::Continue
    }

    #[musuite_marker::nonblocking]
    fn on_close(&mut self, _reason: CloseReason) {
        // Exactly once, by either runner's contract; callbacks for every
        // in-flight call fire here with `ConnectionClosed`.
        self.closed.store(true, Ordering::Release);
        fail_all_inflight(&self.inflight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::server::Server;
    use crate::service::{RequestContext, Service};
    use std::sync::mpsc;

    struct Echo;
    impl Service for Echo {
        fn call(&self, mut ctx: RequestContext) {
            let bytes = ctx.take_payload();
            ctx.respond_ok(bytes);
        }
    }

    const BUDGET_500MS: Duration = Duration::from_millis(500);

    fn echo_server() -> Server {
        Server::spawn(ServerConfig::default(), Arc::new(Echo)).unwrap()
    }

    /// A listener that accepts one connection and never responds on it.
    fn stuck_server() -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (_stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(2));
        });
        addr
    }

    /// Answers with the budget and priority it observed.
    struct Probe;
    impl Service for Probe {
        fn call(&self, ctx: RequestContext) {
            let mut out = ctx.remaining_budget().to_le_bytes().to_vec();
            out.push(ctx.priority() as u8);
            ctx.respond_ok(out);
        }
    }

    #[test]
    fn async_call_completes_on_response_thread() {
        let server = echo_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        let (tx, rx) = mpsc::channel();
        client.call_async(4, b"async".to_vec(), move |result| {
            tx.send(result).unwrap();
        });
        let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(result.unwrap(), b"async");
        assert_eq!(client.inflight_len(), 0);
    }

    #[test]
    fn interleaved_async_calls_multiplex() {
        let server = echo_server();
        let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
        let (tx, rx) = mpsc::channel();
        for i in 0..64u32 {
            let tx = tx.clone();
            client.call_async(1, i.to_le_bytes().to_vec(), move |result| {
                let bytes = result.unwrap();
                let value = u32::from_le_bytes(bytes[..].try_into().unwrap());
                tx.send(value).unwrap();
            });
        }
        let mut seen: Vec<u32> =
            (0..64).map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_sync_callers_share_client() {
        let server = echo_server();
        let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let client = client.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25u32 {
                    let payload = (t << 16 | i).to_le_bytes().to_vec();
                    assert_eq!(client.call(9, payload.clone()).unwrap(), payload);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn server_shutdown_fails_inflight_calls_exactly_once_under_either_runner() {
        use crate::reactor::ReactorConfig;
        /// Keeps every request unanswered until the test lets go.
        #[derive(Default)]
        struct Parked(std::sync::Mutex<Vec<RequestContext>>);
        impl Service for Parked {
            fn call(&self, ctx: RequestContext) {
                self.0.lock().unwrap().push(ctx);
            }
        }
        let reactor = Arc::new(Reactor::start(ReactorConfig::default()));
        for pick_up in [None, Some(&reactor)] {
            let parked = Arc::new(Parked::default());
            let server = Server::spawn(ServerConfig::default(), parked.clone()).unwrap();
            let client = RpcClient::connect_with(server.local_addr(), None, pick_up).unwrap();
            let (tx, rx) = mpsc::channel();
            for _ in 0..3 {
                let tx = tx.clone();
                client.call_async(1, b"held".to_vec(), move |r| tx.send(r).unwrap());
            }
            while parked.0.lock().unwrap().len() < 3 {
                std::thread::sleep(Duration::from_millis(2));
            }
            server.shutdown();
            for _ in 0..3 {
                let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
                assert!(matches!(result, Err(RpcError::ConnectionClosed)), "got {result:?}");
            }
            assert_eq!(client.inflight_len(), 0);
            assert!(client.is_closed());
            // The late answers go into closed sockets; no call completes twice.
            parked.0.lock().unwrap().clear();
            assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
            assert!(client.call(1, b"after".to_vec()).is_err());
        }
    }

    #[test]
    fn client_shutdown_is_idempotent_and_closes() {
        let server = echo_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        client.shutdown();
        client.shutdown();
        assert!(client.is_closed());
        assert!(matches!(client.call(1, Vec::new()), Err(RpcError::ConnectionClosed)));
    }

    #[test]
    fn bounded_call_times_out_against_stuck_server() {
        let addr = stuck_server();
        let client = RpcClient::connect(addr).unwrap();
        let start = std::time::Instant::now();
        let err =
            client.call_opts(1, b"never".to_vec(), CallOptions::within(Duration::from_millis(100)));
        assert!(matches!(err, Err(RpcError::TimedOut)));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(client.inflight_len(), 0, "timed-out call must be deregistered");
    }

    #[test]
    fn async_deadline_reaps_stuck_request() {
        // Without the reaper, the async entry would sit in the in-flight
        // table forever.
        let addr = stuck_server();
        let client = RpcClient::connect(addr).unwrap();
        let (tx, rx) = mpsc::channel();
        let opts = CallOptions::within(Duration::from_millis(100));
        client.call_async_opts(1, b"never".to_vec(), opts, move |r| tx.send(r).unwrap());
        assert_eq!(client.inflight_len(), 1);
        let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(result, Err(RpcError::TimedOut)));
        assert_eq!(client.inflight_len(), 0, "reaper must deregister the entry");
    }

    #[test]
    fn async_deadline_does_not_fire_on_fast_response() {
        let server = echo_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        let (tx, rx) = mpsc::channel();
        let opts = CallOptions::within(Duration::from_secs(30));
        client.call_async_opts(1, b"fast".to_vec(), opts, move |r| tx.send(r).unwrap());
        let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(result.unwrap(), b"fast");
        assert_eq!(client.inflight_len(), 0);
        // The stale heap entry is harmless: its id is gone from the table.
    }

    #[test]
    fn deadline_budget_and_priority_ride_the_wire() {
        let server = Server::spawn(ServerConfig::default(), Arc::new(Probe)).unwrap();
        let client = RpcClient::connect(server.local_addr()).unwrap();

        let opts =
            CallOptions { priority: Priority::Critical, ..CallOptions::within(BUDGET_500MS) };
        let reply = client.call_opts(1, b"p".to_vec(), opts).unwrap();
        let observed = u32::from_le_bytes(reply[..4].try_into().unwrap());
        assert!(observed > 0, "server must observe a budget");
        assert!(observed <= 500_000, "observed budget must be below the front-end timeout");
        assert_eq!(reply[4], Priority::Critical as u8);

        // A plain call carries no budget and the default class.
        let reply = client.call(1, b"p".to_vec()).unwrap();
        assert_eq!(u32::from_le_bytes(reply[..4].try_into().unwrap()), 0);
        assert_eq!(reply[4], Priority::Normal as u8);
    }

    #[test]
    fn a_burst_round_trips_every_call() {
        let server = echo_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        let (tx, rx) = mpsc::channel();
        crate::burst(|| {
            for i in 0..16u32 {
                let tx = tx.clone();
                client.call_async(1, i.to_le_bytes().to_vec(), move |result| {
                    let bytes = result.unwrap();
                    tx.send(u32::from_le_bytes(bytes[..].try_into().unwrap())).unwrap();
                });
            }
        });
        let mut seen: Vec<u32> =
            (0..16).map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
        assert_eq!(client.inflight_len(), 0);
    }

    #[test]
    fn a_burst_on_a_closed_client_fails_every_call_once() {
        let server = echo_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        client.shutdown();
        let (tx, rx) = mpsc::channel();
        crate::burst(|| {
            for i in 0..3u32 {
                let tx = tx.clone();
                client.call_async(1, b"late".to_vec(), move |r| tx.send((i, r)).unwrap());
            }
        });
        let mut calls: Vec<u32> = (0..3)
            .map(|_| {
                let (i, result) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
                assert!(matches!(result, Err(RpcError::ConnectionClosed)), "call {i}: {result:?}");
                i
            })
            .collect();
        calls.sort_unstable();
        assert_eq!(calls, [0, 1, 2], "each call completes exactly once");
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(client.inflight_len(), 0);
    }

    #[test]
    fn connect_to_dead_port_errors() {
        // Bind-then-drop to find a port that is very likely closed.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        assert!(RpcClient::connect(addr).is_err());
    }

    #[test]
    fn debug_is_nonempty() {
        let server = echo_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        assert!(format!("{client:?}").contains("RpcClient"));
    }

    mod via_reactor {
        use super::*;
        use crate::reactor::ReactorConfig;

        #[test]
        fn reactor_client_round_trips_sync_and_async() {
            let server = echo_server();
            let reactor = Arc::new(Reactor::start(ReactorConfig::default()));
            let client =
                RpcClient::connect_with(server.local_addr(), None, Some(&reactor)).unwrap();
            assert_eq!(client.call(1, b"via".to_vec()).unwrap(), b"via");
            let (tx, rx) = mpsc::channel();
            client.call_async(1, b"async-via".to_vec(), move |r| tx.send(r).unwrap());
            let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
            assert_eq!(reply, b"async-via");
            assert_eq!(client.inflight_len(), 0);
        }

        #[test]
        fn many_reactor_clients_share_a_fixed_poller_pool() {
            let server = echo_server();
            let reactor =
                Arc::new(Reactor::start(ReactorConfig { pollers: 2, ..ReactorConfig::default() }));
            let clients: Vec<_> = (0..8)
                .map(|_| {
                    RpcClient::connect_with(server.local_addr(), None, Some(&reactor)).unwrap()
                })
                .collect();
            for (i, client) in clients.iter().enumerate() {
                assert_eq!(client.call(1, vec![i as u8]).unwrap(), vec![i as u8]);
            }
            assert_eq!(reactor.poller_count(), 2);
            assert_eq!(reactor.live_connections(), 8);
        }

        #[test]
        fn reactor_close_fails_inflight_calls() {
            // A server that accepts but never responds; tearing the client
            // down must complete the pending async call via the reactor's
            // on_close path, not leak it.
            let addr = stuck_server();
            let reactor = Arc::new(Reactor::start(ReactorConfig::default()));
            let client = RpcClient::connect_with(addr, None, Some(&reactor)).unwrap();
            let (tx, rx) = mpsc::channel();
            client.call_async(1, b"never".to_vec(), move |r| tx.send(r).unwrap());
            client.shutdown();
            let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(matches!(result, Err(RpcError::ConnectionClosed)), "got {result:?}");
        }

        /// A client holds its reactor through its edge: the reactor lives
        /// as long as its last client, even when that client is released
        /// in a callback on one of the reactor's own sweep threads.
        #[test]
        fn a_client_keeps_its_reactor_until_released_on_its_sweeper() {
            let server = echo_server();
            let reactor = Arc::new(Reactor::start(ReactorConfig::default()));
            let client = Arc::new(
                RpcClient::connect_with(server.local_addr(), None, Some(&reactor)).unwrap(),
            );
            drop(reactor);
            assert_eq!(client.call(1, b"kept".to_vec()).unwrap(), b"kept");
            let (tx, rx) = mpsc::channel();
            let last = client.clone();
            client.call_async(1, b"last".to_vec(), move |r| {
                drop(last);
                tx.send(r).unwrap();
            });
            drop(client);
            let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
            assert_eq!(reply, b"last");
        }

        #[test]
        fn register_on_shut_down_reactor_is_an_error() {
            let server = echo_server();
            let reactor = Arc::new(Reactor::start(ReactorConfig::default()));
            reactor.shutdown();
            assert!(RpcClient::connect_with(server.local_addr(), None, Some(&reactor)).is_err());
        }
    }

    mod faults {
        use super::*;
        use crate::fault::{FaultKind, FaultPlan};

        #[test]
        fn delay_fault_holds_the_frame_back_then_delivers() {
            let server = echo_server();
            let plan = FaultPlan::builder(11, 1).slow_leaf(0, Duration::from_millis(80)).build();
            let client =
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None)
                    .unwrap();
            plan.arm();
            let start = Instant::now();
            let reply = client
                .call_opts(1, b"late".to_vec(), CallOptions::within(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(reply, b"late");
            assert!(
                start.elapsed() >= Duration::from_millis(80),
                "delayed send must not arrive early: {:?}",
                start.elapsed()
            );
        }

        #[test]
        fn stall_fault_is_bounded_only_by_the_deadline() {
            let server = echo_server();
            let plan = FaultPlan::builder(12, 1)
                .rule(0, crate::fault::FaultRule::always(FaultKind::Stall))
                .build();
            let client =
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None)
                    .unwrap();
            plan.arm();
            let err = client.call_opts(
                1,
                b"stuck".to_vec(),
                CallOptions::within(Duration::from_millis(100)),
            );
            assert!(matches!(err, Err(RpcError::TimedOut)), "got {err:?}");
            assert_eq!(client.inflight_len(), 0);
        }

        #[test]
        fn disconnect_fault_tears_the_connection_down() {
            let server = echo_server();
            let plan = FaultPlan::builder(13, 1).dead_leaf(0).build();
            let client =
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None)
                    .unwrap();
            plan.arm();
            let err = client.call(1, b"dead".to_vec());
            assert!(matches!(err, Err(RpcError::ConnectionClosed)), "got {err:?}");
            assert!(client.is_closed());
            // Reconnects to a dead leaf are refused.
            let refused =
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None);
            assert!(refused.is_err());
        }

        #[test]
        fn corrupt_fault_is_detected_never_returned_as_data() {
            let server = echo_server();
            let plan = FaultPlan::builder(14, 1).corrupting_leaf(0, 1).build();
            let client =
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None)
                    .unwrap();
            plan.arm();
            // The server's checksum rejects the frame and drops the
            // connection: the call must error, never echo corrupt bytes.
            let err = client.call_opts(
                1,
                b"garble".to_vec(),
                CallOptions::within(Duration::from_secs(5)),
            );
            assert!(err.is_err(), "corrupted request must not produce a reply");
            assert_eq!(plan.injected_of(FaultKind::Corrupt), 1);
        }

        #[test]
        fn every_frame_of_a_burst_is_its_own_decision() {
            let server = echo_server();
            let plan = FaultPlan::builder(16, 1)
                .rule(0, crate::fault::FaultRule::always(FaultKind::Stall))
                .build();
            let client =
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None)
                    .unwrap();
            plan.arm();
            let (tx, rx) = mpsc::channel();
            crate::burst(|| {
                for i in 0..3u32 {
                    let tx = tx.clone();
                    let opts = CallOptions::within(Duration::from_millis(100));
                    client
                        .call_async_opts(1, vec![i as u8], opts, move |r| tx.send((i, r)).unwrap());
                }
            });
            let mut calls: Vec<u32> = (0..3)
                .map(|_| {
                    let (i, result) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
                    assert!(matches!(result, Err(RpcError::TimedOut)), "call {i}: {result:?}");
                    i
                })
                .collect();
            calls.sort_unstable();
            assert_eq!(calls, [0, 1, 2], "each call completes exactly once");
            assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
            assert_eq!(plan.injected_of(FaultKind::Stall), 3, "three frames, three decisions");
            assert_eq!(client.inflight_len(), 0);
        }

        /// A delayed frame outlives its client's shutdown in the plan's
        /// timer: the call completes once, at the shutdown, and the frame,
        /// released later, finds its writer cut and is dropped.
        #[test]
        fn a_frame_held_past_its_clients_shutdown_is_dropped_at_release() {
            let server = echo_server();
            let plan = FaultPlan::builder(17, 1).slow_leaf(0, Duration::from_millis(150)).build();
            let connect = |plan: &Arc<FaultPlan>| {
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None)
                    .unwrap()
            };
            let client = connect(&plan);
            plan.arm();
            let (tx, rx) = mpsc::channel();
            let sent = Instant::now();
            client.call_async(1, b"held".to_vec(), move |r| tx.send(r).unwrap());
            client.shutdown();
            let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(matches!(result, Err(RpcError::ConnectionClosed)), "got {result:?}");
            // The plan's timer lets go of the frame, and of the writer it
            // holds it for, once the release time has passed.
            let start = Instant::now();
            while Arc::strong_count(&client.writer) > 1 {
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "the held frame was not released"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(sent.elapsed() >= Duration::from_millis(150), "released early");
            assert!(rx.recv_timeout(Duration::from_millis(50)).is_err(), "completed twice");
            // The release did not panic the timer thread: it still delivers.
            let healthy = connect(&plan);
            let opts = CallOptions::within(Duration::from_secs(5));
            assert_eq!(healthy.call_opts(1, b"later".to_vec(), opts).unwrap(), b"later");
            drop((client, healthy));
            // The last handle on the plan joins its timer thread.
            drop(Arc::try_unwrap(plan).expect("the clients held the only other handles"));
        }

        #[test]
        fn disarmed_plan_is_transparent() {
            let server = echo_server();
            let plan = FaultPlan::builder(15, 1).dead_leaf(0).build();
            let client =
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None)
                    .unwrap();
            let reply = client.call(1, b"fine".to_vec()).unwrap();
            assert_eq!(reply, b"fine");
            assert_eq!(plan.injected(), 0);
        }
    }
}

#[cfg(all(test, musuite_check))]
mod model_tests {
    use super::*;
    use musuite_check::sync::Mutex;
    use musuite_check::{thread, Checker};

    /// The response/deadline race over the real `SyncSlot` and in-flight
    /// table: the pick-up thread claims the entry then completes, while
    /// the caller times out and deregisters (the `call_opts`
    /// cleanup path). In every interleaving the caller observes exactly
    /// one outcome — a timed-out slot never resurrects a late write — and
    /// the table ends empty.
    #[test]
    fn response_vs_timeout_claims_entry_exactly_once() {
        let report = Checker::new()
            .check(|| {
                let inflight: InflightTable = Arc::new(CountedMutex::new(HashMap::new()));
                let slot = SyncSlot::new();
                inflight.lock().insert(1, Pending::Sync(slot.clone()));

                let responder = {
                    let inflight = inflight.clone();
                    thread::spawn(move || match inflight.lock().remove(&1) {
                        Some(Pending::Sync(slot)) => {
                            slot.complete(Ok(Bytes::from_static(b"late")));
                            true
                        }
                        Some(_) => unreachable!(),
                        None => false,
                    })
                };

                let result = slot.wait(Some(Duration::from_secs(1)));
                if matches!(result, Err(RpcError::TimedOut)) {
                    inflight.lock().remove(&1);
                }
                let claimed = responder.join().unwrap();
                match result {
                    Ok(payload) => {
                        assert_eq!(&payload[..], b"late");
                        assert!(claimed, "a delivered response implies a claimed entry");
                    }
                    Err(RpcError::TimedOut) => {
                        // The late write (if the responder claimed) lands in a
                        // slot nobody reads again — never delivered twice.
                    }
                    Err(other) => panic!("unexpected outcome: {other:?}"),
                }
                assert!(inflight.lock().is_empty(), "entry must be deregistered either way");
            })
            .expect("every schedule must yield exactly one caller-visible outcome");
        assert!(report.iterations > 1, "the timeout branch must actually be explored");
    }

    /// Responder and reaper race to claim the same entry: the table's
    /// exactly-once `remove` means the entry completes exactly once, never
    /// twice. Two kinds of entry: a blocking caller's slot, whose waiter
    /// sees the claiming thread's outcome, and an attempt that names a
    /// scatter's slot, whose merge runs exactly once.
    #[test]
    fn reaper_and_responder_complete_exactly_once() {
        for names_a_scatter_slot in [false, true] {
            Checker::new()
                .check(move || {
                    let inflight: InflightTable = Arc::new(CountedMutex::new(HashMap::new()));
                    let slot = SyncSlot::new();
                    let merged = Arc::new(Mutex::new(Vec::new()));
                    let entry = if names_a_scatter_slot {
                        let merged = merged.clone();
                        crate::fanout::model_tests::one_slot_attempt(move |result| {
                            merged.lock().push(result.replies.into_iter().next().unwrap());
                        })
                    } else {
                        Pending::Sync(slot.clone())
                    };
                    inflight.lock().insert(1, entry);

                    let claim = |outcome: Result<Bytes, RpcError>| {
                        let inflight = inflight.clone();
                        move || {
                            let pending = inflight.lock().remove(&1);
                            pending.map(|pending| pending.complete(outcome)).is_some()
                        }
                    };
                    let responder = thread::spawn(claim(Ok(Bytes::from_static(b"r"))));
                    let reaper = thread::spawn(claim(Err(RpcError::TimedOut)));

                    let waited = (!names_a_scatter_slot).then(|| slot.wait(None));
                    let claims = usize::from(responder.join().unwrap())
                        + usize::from(reaper.join().unwrap());
                    assert_eq!(claims, 1, "the entry must be claimed by exactly one thread");
                    let results = match waited {
                        Some(result) => vec![result],
                        None => std::mem::take(&mut *merged.lock()),
                    };
                    assert!(
                        matches!(results[..], [Ok(_) | Err(RpcError::TimedOut)]),
                        "one outcome, the claiming thread's: {results:?}"
                    );
                    assert!(inflight.lock().is_empty());
                })
                .expect("no schedule may deliver a completion twice");
        }
    }
}
