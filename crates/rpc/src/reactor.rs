//! The network edge: the paper's two network models over one protocol.
//!
//! The mid-tier of Fig. 8 drives *all* of its connections from a small,
//! fixed set of network poller threads that feed the dispatch queue, so the
//! thread count at the network edge is an architectural constant. The
//! [`Reactor`] reproduces that without `epoll` bindings (no `unsafe`, no new
//! dependencies): registered sockets are switched to non-blocking mode and
//! partitioned across `pollers` *sweep threads*, each of which asks its
//! connections' [`RecvBuf`]s for whatever the kernel has buffered and hands
//! complete frames to each connection's [`ConnDriver`]. One connection
//! drains at most `sweep_budget` frames per sweep, so a chatty peer cannot
//! starve its shard-mates. After an empty sweep the thread yields or parks
//! (20 µs doubling to 640 µs, this reactor's stand-in for `epoll_pwait`) by
//! the dispatch queue's [`WaitMode`] rule.
//!
//! New connections land in their shard's `Ledger` and are adopted at the top
//! of the next sweep, after which the sweep thread owns them exclusively. A
//! connection leaves by [`Drive::Close`], I/O error or EOF, idle timeout or
//! shutdown, and its driver's `on_close` runs exactly once (the handoff
//! between a racing `register` and `shutdown` is model-checked under
//! `musuite_check`).
//!
//! A server's or a client's whole network edge is one `Edge`, whose arms are
//! the two arms of [`NetworkModel`](crate::NetworkModel): a reactor, or a
//! runner thread per connection blocked in `read`, whose live connections
//! sit in a `Ledger` under the same exactly-once rule. The edge makes the
//! socket (connects, or accepts in a server's accept loop), splits it into a
//! [`ConnWriter`] and a read half, runs the read half and closes it; server
//! and client only name the driver. A driver cannot tell which arm feeds it,
//! so the two models are an ablation of the wait, not of the protocol
//! (DESIGN.md §5d).

use crate::buf::{flush_outbox, ConnWriter, DeferScope, RecvBuf, SharedWriter};
use crate::config::{ServerConfig, WaitMode};
use crate::error::RpcError;
use musuite_check::atomic::{AtomicBool, AtomicUsize, Ordering};
use musuite_check::sync::{Condvar, Mutex};
use musuite_check::thread::{Builder, JoinHandle};
use musuite_codec::Frame;
use musuite_telemetry::counters::{OsOp, OsOpCounters};
use musuite_telemetry::netpoll::{CoalesceStats, ReactorEvent, ReactorStats};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// First timed park after a shard goes idle.
const PARK_MIN: Duration = Duration::from_micros(20);
/// Escalation ceiling: 20 µs << 5.
const PARK_MAX_SHIFT: u32 = 5;

/// What a [`ConnDriver`] tells the reactor after each frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Keep sweeping this connection.
    Continue,
    /// Close the connection (driver-initiated hangup).
    Close,
}

/// Why a connection left its runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer hung up, the stream errored, or the driver asked to close.
    Disconnect,
    /// No traffic within the configured idle timeout.
    Idle,
    /// The reactor, or the connection's owner, is shutting down.
    Shutdown,
}

/// Per-connection protocol logic, run by a reactor sweep thread or by a
/// thread of its own (the per-connection arm of the edge).
///
/// The runner owns the socket's read half and the frame-assembly buffer;
/// the driver only sees complete frames. `on_close` is called exactly
/// once, whatever the connection's fate — it is where a server counts an
/// idle reap and a client fails its in-flight calls.
pub trait ConnDriver: Send {
    /// Handles one complete frame. `rx_start_ns` is the monotonic
    /// timestamp at which the frame's first byte arrived (for NetRx
    /// stage attribution).
    fn on_frame(&mut self, frame: Frame, rx_start_ns: u64) -> Drive;

    /// Final callback when the connection leaves its runner.
    fn on_close(&mut self, reason: CloseReason);
}

/// The network edge of one server or client, under either arm of
/// [`NetworkModel`](crate::NetworkModel). Dropping it closes what it alone
/// owns: its own runner threads, not a reactor it shares.
pub(crate) enum Edge {
    /// `BlockingPerConn`: a runner thread per connection.
    Threads(ConnThreads),
    /// `SharedPollers`: a fixed pool of sweep threads.
    Shared(Arc<Reactor>),
}

impl Edge {
    /// A server's edge, which applies the idle timeout to what it accepts.
    pub(crate) fn serving(config: &ServerConfig) -> Edge {
        let idle_timeout = config.idle_timeout_value();
        match config.reactor_config() {
            Some(pool) => {
                Edge::Shared(Arc::new(Reactor::start(ReactorConfig { idle_timeout, ..pool })))
            }
            None => Edge::Threads(ConnThreads::new("musuite-poller", idle_timeout)),
        }
    }

    /// A client's edge: a pick-up thread of its own, or a shared sweep.
    pub(crate) fn dialing(reactor: Option<&Arc<Reactor>>) -> Edge {
        match reactor {
            Some(reactor) => Edge::Shared(reactor.clone()),
            None => Edge::Threads(ConnThreads::new("musuite-response", None)),
        }
    }

    /// Connects to `addr` and attaches the connection; returns its writer
    /// and the peer's address.
    pub(crate) fn connect<D: ConnDriver + 'static>(
        &self,
        addr: impl ToSocketAddrs,
        driver: D,
    ) -> Result<(SharedWriter, SocketAddr), RpcError> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr()?;
        Ok((self.attach(stream, Arc::default(), |_| driver)?, peer))
    }

    /// Binds `addr` and spawns the accept loop, which attaches every
    /// connection until the edge shuts down.
    pub(crate) fn listen<D: ConnDriver + 'static>(
        self: &Arc<Self>,
        addr: impl ToSocketAddrs,
        stats: Arc<CoalesceStats>,
        driver: impl Fn(SharedWriter) -> D + Send + 'static,
    ) -> Result<Acceptor, RpcError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let edge = self.clone();
        OsOpCounters::global().incr(OsOp::Clone);
        let thread = Builder::new()
            .name("musuite-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { continue };
                    if let Err(RpcError::ShuttingDown) = edge.attach(stream, stats.clone(), &driver)
                    {
                        break;
                    }
                }
            })
            .expect("spawn accept thread"); // lint: allow(expect): server is inert without acceptor
        Ok(Acceptor { addr, thread: Mutex::new(Some(thread)) })
    }

    /// Sets `TCP_NODELAY`, ticks `OpenAt`, splits the socket into the
    /// returned writer (writes counted in `stats`) and a read half, gives
    /// a runner thread the idle timeout as its read timeout, and starts the
    /// read half's runner over the driver made for the writer. Once the
    /// driver exists, its `on_close` has run if this fails.
    pub(crate) fn attach<D: ConnDriver + 'static>(
        &self,
        stream: TcpStream,
        stats: Arc<CoalesceStats>,
        driver: impl FnOnce(SharedWriter) -> D,
    ) -> Result<SharedWriter, RpcError> {
        let shut = match self {
            Edge::Threads(threads) => threads.live.is_shutdown(),
            Edge::Shared(reactor) => reactor.shutdown.load(Ordering::Acquire),
        };
        if shut {
            return Err(RpcError::ShuttingDown);
        }
        OsOpCounters::global().incr(OsOp::OpenAt);
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        if let Edge::Threads(threads) = self {
            read_half.set_read_timeout(threads.idle_timeout)?;
        }
        let writer: SharedWriter = Arc::new(ConnWriter::with_stats(stream, stats));
        let driver = driver(writer.clone());
        match self {
            Edge::Threads(threads) => threads.run(read_half, driver)?,
            Edge::Shared(reactor) => reactor.register(read_half, Box::new(driver))?,
        }
        Ok(writer)
    }

    /// Connections this edge runs now.
    pub(crate) fn live_connections(&self) -> usize {
        match self {
            Edge::Threads(threads) => threads.reap(),
            Edge::Shared(reactor) => reactor.live_connections(),
        }
    }

    /// Threads serving this edge now: one per live connection, or the
    /// reactor's fixed poller count.
    pub(crate) fn network_threads(&self) -> usize {
        match self {
            Edge::Threads(threads) => threads.reap(),
            Edge::Shared(reactor) => reactor.poller_count(),
        }
    }

    /// The reactor, under `SharedPollers`.
    pub(crate) fn reactor(&self) -> Option<&Arc<Reactor>> {
        let Edge::Shared(reactor) = self else { return None };
        Some(reactor)
    }

    /// Closes every connection (`on_close(Shutdown)`), joins what ran it
    /// and refuses later attaches. Idempotent.
    pub(crate) fn shutdown(&self) {
        match self {
            Edge::Threads(threads) => threads.shutdown(),
            Edge::Shared(reactor) => reactor.shutdown(),
        }
    }
}

/// A server's listening socket, accepted on by a thread of its own.
pub(crate) struct Acceptor {
    pub(crate) addr: SocketAddr,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Acceptor {
    /// Wakes the accept loop with a throwaway connection, which its edge
    /// (shut down first) refuses, and joins it. Idempotent.
    pub(crate) fn stop(&self) {
        let thread = self.thread.lock().take();
        if let Some(thread) = thread {
            let _ = TcpStream::connect(self.addr);
            let _ = thread.join();
        }
    }
}

/// The per-connection arm: each read half runs on a thread of its own, and
/// the live ones sit in a [`Ledger`], so a connection attached while the
/// edge shuts down is closed by exactly one side, as a registration is.
pub(crate) struct ConnThreads {
    name: &'static str,
    idle_timeout: Option<Duration>,
    live: Ledger<LiveConn>,
    stop: Arc<AtomicBool>,
}

/// A runner and the read half it blocks on, shut down to interrupt it.
struct LiveConn {
    stream: Arc<TcpStream>,
    runner: JoinHandle<()>,
}

impl LiveConn {
    fn close(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        let _ = self.runner.join();
    }
}

impl ConnThreads {
    fn new(name: &'static str, idle_timeout: Option<Duration>) -> ConnThreads {
        ConnThreads { name, idle_timeout, live: Ledger::new(), stop: Arc::default() }
    }

    /// Spawns the runner: a thread that blocks on `stream`, hands every
    /// frame to `driver`, and closes the socket when the peer hangs up or
    /// sends a bad frame, when the driver says [`Drive::Close`], when the
    /// read timeout passes with no frame in flight ([`CloseReason::Idle`]),
    /// or once `stop` is set — the edge sets it, then shuts the socket down
    /// under the wait. `on_close` is the thread's last act. It ticks one
    /// `clone` at spawn, one `epoll_pwait` per wait entered with no complete
    /// frame buffered and one `close`; as a [`DeferScope`] it flushes when no
    /// complete frame is left, before it waits for the next.
    fn run<D: ConnDriver + 'static>(
        &self,
        stream: TcpStream,
        mut driver: D,
    ) -> Result<(), RpcError> {
        let stream = Arc::new(stream);
        let counters = OsOpCounters::global();
        counters.incr(OsOp::Clone);
        let (read_half, stop) = (stream.clone(), self.stop.clone());
        let runner = Builder::new()
            .name(self.name.to_string())
            .spawn(move || {
                let mut buf = RecvBuf::default();
                // Dropped after `on_close`: what that queued is written too.
                let _outbox = DeferScope::enter();
                let reason = loop {
                    if !buf.has_frame() {
                        flush_outbox();
                        counters.incr(OsOp::EpollPwait);
                    }
                    let verdict = buf.poll_frame(&mut &*read_half).map(|got| {
                        got.map(|(frame, rx_start_ns)| driver.on_frame(frame, rx_start_ns))
                    });
                    match verdict {
                        _ if stop.load(Ordering::Acquire) => break CloseReason::Shutdown,
                        Ok(Some(Drive::Continue)) => {}
                        Ok(Some(Drive::Close)) => break CloseReason::Disconnect,
                        // The read timed out. With nothing buffered that is an
                        // idle connection; inside a frame, a broken stream.
                        Ok(None) if !buf.mid_frame() => break CloseReason::Idle,
                        Ok(None) | Err(_) => break CloseReason::Disconnect,
                    }
                };
                // Both halves, explicitly: the writer holds another handle
                // to this socket, so dropping this one would leave the peer
                // waiting on a silent connection.
                let _ = read_half.shutdown(Shutdown::Both);
                counters.incr(OsOp::Close);
                driver.on_close(reason);
            })
            .expect("spawn connection runner"); // lint: allow(expect): a connection is dead without its runner
        self.track(LiveConn { stream, runner })
    }

    /// Keeps `conn` until its runner exits (first joining those that did)
    /// or the edge shuts down; once shutdown has begun, closes it here.
    fn track(&self, conn: LiveConn) -> Result<(), RpcError> {
        self.reap();
        self.live.submit(conn).map_err(|conn| {
            conn.close();
            RpcError::ShuttingDown
        })
    }

    /// Joins the runners that have exited; returns how many are left.
    fn reap(&self) -> usize {
        for conn in self.live.take_if(|conn| conn.runner.is_finished()) {
            let _ = conn.runner.join();
        }
        self.live.count()
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        for conn in self.live.begin_shutdown() {
            conn.close();
        }
    }
}

impl Drop for ConnThreads {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Tuning for a [`Reactor`]; mirrors the server's network knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Number of sweep threads; registered sockets are partitioned
    /// round-robin across them.
    pub pollers: usize,
    /// How a sweep thread waits after an empty sweep.
    pub wait_mode: WaitMode,
    /// Max complete frames drained from one connection per sweep.
    pub sweep_budget: usize,
    /// Drop connections with no traffic for this long (`None` = never);
    /// a server's reactor sets it, one its clients dial through does not.
    pub idle_timeout: Option<Duration>,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            pollers: 2,
            wait_mode: WaitMode::Block,
            sweep_budget: 32,
            idle_timeout: None,
        }
    }
}

/// A connection waiting to be adopted by a sweep thread.
struct Registration {
    stream: TcpStream,
    driver: Box<dyn ConnDriver>,
}

/// The registration mailbox between `register` callers and one sweep
/// thread, doubling as the shard's park point; and the per-connection
/// arm's table of live connections.
///
/// Exactly-once handoff invariant (model-checked): an item accepted by
/// [`Ledger::submit`] is collected by *either* its owner's
/// [`Ledger::drain`] or [`Ledger::take_if`] *or* the shutdown initiator's
/// [`Ledger::begin_shutdown`] — never both, never neither — because the
/// shutdown flag and the pending queue live under one lock. A submit that
/// loses the race observes the flag and returns the item to its caller.
#[derive(Debug)]
pub(crate) struct Ledger<T> {
    state: Mutex<LedgerState<T>>,
    wakeup: Condvar,
}

#[derive(Debug)]
struct LedgerState<T> {
    pending: Vec<T>,
    shutdown: bool,
}

impl<T> Ledger<T> {
    pub(crate) fn new() -> Ledger<T> {
        Ledger {
            state: Mutex::new(LedgerState { pending: Vec::new(), shutdown: false }),
            wakeup: Condvar::new(),
        }
    }

    /// Hands `item` to the sweep thread; returns it if the ledger already
    /// shut down (the caller then owns cleanup).
    pub(crate) fn submit(&self, item: T) -> Result<(), T> {
        let mut st = self.state.lock();
        if st.shutdown {
            return Err(item);
        }
        st.pending.push(item);
        self.wakeup.notify_all();
        Ok(())
    }

    /// Takes everything submitted since the last drain.
    pub(crate) fn drain(&self) -> Vec<T> {
        std::mem::take(&mut self.state.lock().pending)
    }

    /// Takes the items `pick` selects, leaving the rest.
    pub(crate) fn take_if(&self, pick: impl FnMut(&mut T) -> bool) -> Vec<T> {
        self.state.lock().pending.extract_if(.., pick).collect()
    }

    /// Items submitted and not yet taken.
    pub(crate) fn count(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// `true` once shutdown has begun.
    pub(crate) fn is_shutdown(&self) -> bool {
        self.state.lock().shutdown
    }

    /// Marks the ledger shut down and returns items no sweeper adopted.
    pub(crate) fn begin_shutdown(&self) -> Vec<T> {
        let mut st = self.state.lock();
        st.shutdown = true;
        let orphans = std::mem::take(&mut st.pending);
        self.wakeup.notify_all();
        orphans
    }

    /// Parks the sweep thread until a registration, shutdown, or timeout.
    pub(crate) fn park(&self, timeout: Duration) {
        let mut st = self.state.lock();
        if st.pending.is_empty() && !st.shutdown {
            self.wakeup.wait_for(&mut st, timeout);
        }
    }
}

struct Shard {
    ledger: Arc<Ledger<Registration>>,
    sweeper: Mutex<Option<JoinHandle<()>>>,
    /// The sweeper's thread, recorded as it starts.
    sweeper_id: Arc<Mutex<Option<ThreadId>>>,
}

/// A fixed pool of sweep threads multiplexing registered sockets — the
/// `SharedPollers` arm of [`NetworkModel`](crate::NetworkModel).
///
/// # Examples
///
/// ```no_run
/// use musuite_rpc::reactor::{ConnDriver, CloseReason, Drive, Reactor, ReactorConfig};
/// use musuite_codec::Frame;
///
/// struct Printer;
/// impl ConnDriver for Printer {
///     fn on_frame(&mut self, frame: Frame, _rx: u64) -> Drive {
///         println!("{} bytes", frame.payload.len());
///         Drive::Continue
///     }
///     fn on_close(&mut self, _reason: CloseReason) {}
/// }
///
/// # fn main() -> Result<(), musuite_rpc::RpcError> {
/// let reactor = Reactor::start(ReactorConfig::default());
/// let socket = std::net::TcpStream::connect("127.0.0.1:9000")?;
/// reactor.register(socket, Box::new(Printer))?;
/// # Ok(())
/// # }
/// ```
pub struct Reactor {
    shards: Vec<Shard>,
    next: AtomicUsize,
    stats: Arc<ReactorStats>,
    live: Arc<AtomicUsize>,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("pollers", &self.shards.len())
            .field("live", &self.live_connections())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Reactor {
    /// Spawns `config.pollers` sweep threads and returns the handle used
    /// to register connections.
    ///
    /// # Panics
    ///
    /// Panics if `config.pollers` or `config.sweep_budget` is zero, or if
    /// the OS refuses to spawn a thread.
    pub fn start(config: ReactorConfig) -> Reactor {
        assert!(config.pollers > 0, "reactor needs at least one poller");
        assert!(config.sweep_budget > 0, "sweep budget must be positive");
        let stats = Arc::new(ReactorStats::new());
        let live = Arc::new(AtomicUsize::new(0));
        let shards = (0..config.pollers)
            .map(|i| {
                let ledger = Arc::new(Ledger::new());
                let sweeper_id = Arc::new(Mutex::new(None));
                let params = SweepParams {
                    ledger: ledger.clone(),
                    stats: stats.clone(),
                    live: live.clone(),
                    wait_mode: config.wait_mode,
                    sweep_budget: config.sweep_budget,
                    idle_timeout: config.idle_timeout,
                };
                // Thread-spawn failure at startup is unrecoverable,
                // matching the server's worker pool.
                let id = sweeper_id.clone();
                let handle = Builder::new()
                    .name(format!("musuite-reactor-{i}"))
                    .spawn(move || {
                        *id.lock() = Some(std::thread::current().id());
                        run_sweeper(params)
                    })
                    .expect("spawn reactor sweeper"); // lint: allow(expect)
                Shard { ledger, sweeper: Mutex::new(Some(handle)), sweeper_id }
            })
            .collect();
        Reactor { shards, next: AtomicUsize::new(0), stats, live, shutdown: AtomicBool::new(false) }
    }

    /// Switches `stream` to non-blocking mode and hands it to a sweep
    /// thread (round-robin). On success the reactor owns the read half
    /// for the connection's lifetime.
    ///
    /// # Errors
    ///
    /// [`RpcError::ShuttingDown`] if the reactor has shut down,
    /// [`RpcError::Io`] if the socket rejects non-blocking mode. In both
    /// cases the driver's `on_close` has already run.
    pub fn register(
        &self,
        stream: TcpStream,
        mut driver: Box<dyn ConnDriver>,
    ) -> Result<(), RpcError> {
        if let Err(e) = stream.set_nonblocking(true) {
            driver.on_close(CloseReason::Shutdown);
            return Err(RpcError::Io(e));
        }
        let shard = &self.shards[self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len()];
        match shard.ledger.submit(Registration { stream, driver }) {
            Ok(()) => Ok(()),
            Err(mut reg) => {
                reg.driver.on_close(CloseReason::Shutdown);
                Err(RpcError::ShuttingDown)
            }
        }
    }

    /// Number of sweep threads — the server's entire network-thread
    /// budget in `SharedPollers` mode.
    pub fn poller_count(&self) -> usize {
        self.shards.len()
    }

    /// Connections currently owned by sweep threads.
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// Sweep/park/frame counters for this reactor.
    pub fn stats(&self) -> &ReactorStats {
        &self.stats
    }

    /// Stops all sweep threads, closing every connection (drivers get
    /// `on_close(Shutdown)`) and refusing future registrations.
    /// Idempotent; joins the sweepers before returning, all but the
    /// calling thread when that is one of them.
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for shard in &self.shards {
            // Orphans were submitted but never adopted; close them here —
            // the sweeper will never see them.
            for mut reg in shard.ledger.begin_shutdown() {
                let _ = reg.stream.shutdown(Shutdown::Both);
                reg.driver.on_close(CloseReason::Shutdown);
            }
        }
        for shard in &self.shards {
            let handle = shard.sweeper.lock().take();
            // A client holds its reactor, so the last owner can be released
            // in a callback on a sweeper: that one is on its way out (it
            // sees the shutdown at its next sweep) and must not join itself.
            if *shard.sweeper_id.lock() == Some(std::thread::current().id()) {
                continue;
            }
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct SweepParams {
    ledger: Arc<Ledger<Registration>>,
    stats: Arc<ReactorStats>,
    live: Arc<AtomicUsize>,
    wait_mode: WaitMode,
    sweep_budget: usize,
    idle_timeout: Option<Duration>,
}

/// A connection owned by one sweep thread.
struct Conn {
    stream: TcpStream,
    buf: RecvBuf,
    driver: Box<dyn ConnDriver>,
    last_activity: Instant,
}

fn close_conn(mut conn: Conn, reason: CloseReason, stats: &ReactorStats, live: &AtomicUsize) {
    let _ = conn.stream.shutdown(Shutdown::Both);
    // Counted out before the driver hears of it: whoever `on_close` wakes
    // must not still see this connection as live.
    stats.incr(ReactorEvent::Closed);
    live.fetch_sub(1, Ordering::AcqRel);
    conn.driver.on_close(reason);
}

/// The sweep loop proper. A stuck sweeper stalls timers and frame
/// delivery for every connection on the shard, so everything reachable
/// from here must stay nonblocking — enforced statically by the
/// `musuite-analyze` reachability pass.
#[musuite_marker::nonblocking]
fn run_sweeper(params: SweepParams) {
    let SweepParams { ledger, stats, live, wait_mode, sweep_budget, idle_timeout } = params;
    let mut conns: Vec<Conn> = Vec::new();
    let mut idle_streak: u32 = 0;
    let _outbox = DeferScope::enter();
    loop {
        for reg in ledger.drain() {
            stats.incr(ReactorEvent::Registered);
            live.fetch_add(1, Ordering::AcqRel);
            conns.push(Conn {
                stream: reg.stream,
                buf: RecvBuf::default(),
                driver: reg.driver,
                last_activity: Instant::now(),
            });
        }
        if ledger.is_shutdown() {
            for conn in conns.drain(..) {
                close_conn(conn, CloseReason::Shutdown, &stats, &live);
            }
            return;
        }
        let now = Instant::now();
        let mut drained: u64 = 0;
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            let mut frames_this_conn = 0usize;
            let mut close = None;
            // Fairness bound: at most `sweep_budget` frames before moving
            // to the shard's next connection; surplus frames wait in the
            // connection's receive buffer.
            while frames_this_conn < sweep_budget {
                match conn.buf.poll_frame(&mut conn.stream) {
                    Ok(Some((frame, rx_start_ns))) => {
                        frames_this_conn += 1;
                        match conn.driver.on_frame(frame, rx_start_ns) {
                            Drive::Continue => {}
                            Drive::Close => {
                                close = Some(CloseReason::Disconnect);
                                break;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        close = Some(CloseReason::Disconnect);
                        break;
                    }
                }
            }
            drained += frames_this_conn as u64;
            if frames_this_conn > 0 {
                conn.last_activity = now;
            } else if close.is_none() {
                if let Some(timeout) = idle_timeout {
                    // Never reap mid-frame: a slow-trickling peer is
                    // active, just glacially so.
                    if !conn.buf.mid_frame() && now.duration_since(conn.last_activity) >= timeout {
                        close = Some(CloseReason::Idle);
                    }
                }
            }
            match close {
                Some(reason) => {
                    let conn = conns.swap_remove(i);
                    close_conn(conn, reason, &stats, &live);
                }
                None => i += 1,
            }
        }
        stats.record_sweep(drained);
        // One pass is this thread's burst: what it queued goes out before
        // the thread polls the sockets again, yields or parks.
        flush_outbox();
        if drained > 0 {
            idle_streak = 0;
            continue;
        }
        // The dispatch queue's rule: yield within the spin budget, then park.
        idle_streak = idle_streak.saturating_add(1);
        if idle_streak <= wait_mode.spin_budget() {
            stats.incr(ReactorEvent::Yield);
            musuite_check::thread::yield_now();
        } else {
            park(&ledger, &stats, idle_streak - wait_mode.spin_budget());
        }
    }
}

/// Timed park with escalation: a freshly idle shard wakes after 20 µs (so
/// request bursts pay little wakeup latency), a long-idle shard converges
/// to 640 µs parks (so idle reactors cost ~1.5k wakeups/s, not a core).
fn park(ledger: &Ledger<Registration>, stats: &ReactorStats, streak: u32) {
    let shift = streak.saturating_sub(1).min(PARK_MAX_SHIFT);
    stats.incr(ReactorEvent::Park);
    ledger.park(PARK_MIN * (1 << shift));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::loopback_pair;
    use std::io::Write;
    use std::sync::mpsc;

    /// Forwards every event to an mpsc channel.
    struct Probe {
        frames: mpsc::Sender<Frame>,
        closes: mpsc::Sender<CloseReason>,
    }

    impl ConnDriver for Probe {
        fn on_frame(&mut self, frame: Frame, rx_start_ns: u64) -> Drive {
            assert!(rx_start_ns > 0);
            let _ = self.frames.send(frame);
            Drive::Continue
        }
        fn on_close(&mut self, reason: CloseReason) {
            let _ = self.closes.send(reason);
        }
    }

    fn probe() -> (Probe, mpsc::Receiver<Frame>, mpsc::Receiver<CloseReason>) {
        let (ftx, frx) = mpsc::channel();
        let (ctx, crx) = mpsc::channel();
        (Probe { frames: ftx, closes: ctx }, frx, crx)
    }

    #[test]
    fn frames_flow_through_all_wait_modes() {
        for wait_mode in [WaitMode::Block, WaitMode::Poll, WaitMode::Adaptive] {
            let reactor =
                Reactor::start(ReactorConfig { pollers: 2, wait_mode, ..ReactorConfig::default() });
            let (mut peer, reactor_side) = loopback_pair();
            let (driver, frames, _closes) = probe();
            reactor.register(reactor_side, Box::new(driver)).unwrap();
            for id in 0..5u64 {
                peer.write_all(&Frame::request(id, 3, vec![id as u8; 100]).to_bytes()).unwrap();
            }
            for id in 0..5u64 {
                let frame = frames.recv_timeout(Duration::from_secs(5)).unwrap();
                assert_eq!(frame.header.request_id, id, "in-order under {wait_mode:?}");
            }
            assert_eq!(reactor.live_connections(), 1);
            reactor.shutdown();
            assert_eq!(reactor.live_connections(), 0);
        }
    }

    /// The two things that can run a [`ConnDriver`]. What a driver sees —
    /// frames in order, then `on_close` exactly once with the reason — must
    /// not depend on which, so the lifecycle tests below run under both.
    #[derive(Debug, Clone, Copy)]
    enum Runner {
        Sweeper,
        Blocking,
    }

    const RUNNERS: [Runner; 2] = [Runner::Sweeper, Runner::Blocking];

    /// A driver running over one end of a loopback pair.
    struct Running {
        peer: TcpStream,
        /// The owner's shutdown; returns once the driver can no longer be
        /// called, so whatever `on_close` sent has been sent.
        stop: Box<dyn FnOnce()>,
    }

    fn run<D: ConnDriver + 'static>(
        runner: Runner,
        driver: D,
        idle_timeout: Option<Duration>,
    ) -> Running {
        let (peer, side) = loopback_pair();
        let edge = match runner {
            Runner::Sweeper => Edge::Shared(Arc::new(Reactor::start(ReactorConfig {
                pollers: 1,
                idle_timeout,
                ..ReactorConfig::default()
            }))),
            Runner::Blocking => Edge::Threads(ConnThreads::new("test", idle_timeout)),
        };
        edge.attach(side, Arc::default(), |_| driver).unwrap();
        // Dropped right after, which shuts down again: idempotent.
        Running { peer, stop: Box::new(move || edge.shutdown()) }
    }

    /// Waits for the connection to close on its own, then stops the runner
    /// to be sure `on_close` ran exactly once — not again at shutdown.
    fn sole_close_reason(running: Running, closes: &mpsc::Receiver<CloseReason>) -> CloseReason {
        let reason = closes.recv_timeout(Duration::from_secs(5)).expect("on_close must run");
        (running.stop)();
        assert!(closes.try_recv().is_err(), "on_close must run exactly once");
        reason
    }

    /// A closed connection is dead on the wire at once, whatever other
    /// handles on the socket are still open: the peer reads EOF.
    fn assert_peer_reads_eof(peer: &mut TcpStream) {
        use std::io::Read;
        peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(peer.read(&mut [0u8; 8]).unwrap_or(0), 0);
    }

    #[test]
    fn peer_hangup_closes_once_with_disconnect() {
        for runner in RUNNERS {
            let (driver, frames, closes) = probe();
            let mut running = run(runner, driver, None);
            let last_words = Frame::request(7, 3, b"last words".to_vec());
            running.peer.write_all(&last_words.to_bytes()).unwrap();
            assert_eq!(frames.recv_timeout(Duration::from_secs(5)).unwrap(), last_words);
            running.peer.shutdown(Shutdown::Both).unwrap();
            assert_eq!(sole_close_reason(running, &closes), CloseReason::Disconnect, "{runner:?}");
        }
    }

    #[test]
    fn bad_bytes_close_once_with_disconnect_and_the_peer_reads_eof() {
        let mut poisoned = Frame::request(1, 1, b"x".to_vec()).to_bytes();
        *poisoned.last_mut().unwrap() ^= 0xFF;
        for runner in RUNNERS {
            for bytes in [&[0u8; 64][..], &poisoned] {
                let (driver, _frames, closes) = probe();
                let mut running = run(runner, driver, None);
                running.peer.write_all(bytes).unwrap();
                assert_peer_reads_eof(&mut running.peer);
                assert_eq!(
                    sole_close_reason(running, &closes),
                    CloseReason::Disconnect,
                    "{runner:?}"
                );
            }
        }
    }

    #[test]
    fn driver_close_verdict_closes_once_with_disconnect() {
        struct OneShot {
            closes: mpsc::Sender<CloseReason>,
        }
        impl ConnDriver for OneShot {
            fn on_frame(&mut self, _frame: Frame, _rx: u64) -> Drive {
                Drive::Close
            }
            fn on_close(&mut self, reason: CloseReason) {
                let _ = self.closes.send(reason);
            }
        }
        for runner in RUNNERS {
            let (ctx, closes) = mpsc::channel();
            let mut running = run(runner, OneShot { closes: ctx }, None);
            running.peer.write_all(&Frame::request(1, 1, Vec::new()).to_bytes()).unwrap();
            assert_eq!(sole_close_reason(running, &closes), CloseReason::Disconnect, "{runner:?}");
        }
    }

    #[test]
    fn idle_connections_are_reaped_once_mid_frame_spared() {
        for runner in RUNNERS {
            let idle_timeout = Some(Duration::from_millis(50));
            let (idle_driver, _f1, idle_closes) = probe();
            let (busy_driver, _f2, busy_closes) = probe();
            let mut idle = run(runner, idle_driver, idle_timeout);
            let mut busy = run(runner, busy_driver, idle_timeout);
            // The busy peer keeps one frame perpetually half-sent: it must
            // not be reaped even though no *complete* frame ever arrives.
            let frame_bytes = Frame::request(1, 1, vec![7u8; 1000]).to_bytes();
            let deadline = Instant::now() + Duration::from_millis(300);
            for byte in frame_bytes[..frame_bytes.len() - 1].chunks(1) {
                if Instant::now() >= deadline {
                    break;
                }
                busy.peer.write_all(byte).unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(busy_closes.try_recv().is_err(), "mid-frame conn must survive ({runner:?})");
            assert_peer_reads_eof(&mut idle.peer);
            assert_eq!(sole_close_reason(idle, &idle_closes), CloseReason::Idle, "{runner:?}");
            (busy.stop)();
        }
    }

    #[test]
    fn owner_shutdown_closes_once_with_shutdown() {
        for runner in RUNNERS {
            let (driver, _frames, closes) = probe();
            let running = run(runner, driver, None);
            (running.stop)();
            assert_eq!(closes.try_recv(), Ok(CloseReason::Shutdown), "{runner:?}");
            assert!(closes.try_recv().is_err(), "on_close must run exactly once");
        }
    }

    #[test]
    fn register_after_shutdown_is_refused_with_close() {
        let reactor = Reactor::start(ReactorConfig::default());
        reactor.shutdown();
        let (_peer, reactor_side) = loopback_pair();
        let (driver, _frames, closes) = probe();
        let err = reactor.register(reactor_side, Box::new(driver)).unwrap_err();
        assert!(matches!(err, RpcError::ShuttingDown));
        assert_eq!(closes.recv_timeout(Duration::from_secs(1)).unwrap(), CloseReason::Shutdown);
    }

    #[test]
    fn sweep_budget_bounds_per_conn_work_without_loss() {
        let reactor = Reactor::start(ReactorConfig {
            pollers: 1,
            sweep_budget: 2,
            ..ReactorConfig::default()
        });
        let (mut peer, reactor_side) = loopback_pair();
        let (driver, frames, _closes) = probe();
        reactor.register(reactor_side, Box::new(driver)).unwrap();
        let mut burst = Vec::new();
        for id in 0..40u64 {
            burst.extend_from_slice(&Frame::request(id, 1, Vec::new()).to_bytes());
        }
        peer.write_all(&burst).unwrap();
        for id in 0..40u64 {
            let frame = frames.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(frame.header.request_id, id);
        }
        // The budget forced the 40-frame burst across many sweeps.
        reactor.shutdown(); // a sweep is counted as it ends
        assert!(reactor.stats().sweeps() >= 20);
    }

    #[test]
    fn stats_observe_traffic_and_lifecycle() {
        let reactor = Reactor::start(ReactorConfig::default());
        let (mut peer, reactor_side) = loopback_pair();
        let (driver, frames, _closes) = probe();
        reactor.register(reactor_side, Box::new(driver)).unwrap();
        peer.write_all(&Frame::request(0, 2, Vec::new()).to_bytes()).unwrap();
        frames.recv_timeout(Duration::from_secs(5)).unwrap();
        // A sweep is counted as it ends: stop the sweepers, then read.
        reactor.shutdown();
        let stats = reactor.stats();
        assert_eq!(stats.get(ReactorEvent::Registered), 1);
        assert_eq!(stats.frames(), 1);
        assert!(stats.sweeps() >= 1);
        assert_eq!(stats.get(ReactorEvent::Closed), 1);
    }
}

#[cfg(all(test, musuite_check))]
mod model_tests {
    use super::*;
    use musuite_check::{thread, Checker};

    /// The registration/shutdown handoff: a submit racing `begin_shutdown`
    /// and a sweeper `drain` must surface the item on exactly one side —
    /// sweeper, shutdown initiator, or (rejected) back to the registrant.
    #[test]
    fn registration_vs_shutdown_is_exactly_once() {
        let report = Checker::new()
            .check(|| {
                let ledger = Arc::new(Ledger::new());
                let submitter = {
                    let ledger = ledger.clone();
                    thread::spawn(move || ledger.submit(7u32).is_ok())
                };
                let closer = {
                    let ledger = ledger.clone();
                    thread::spawn(move || ledger.begin_shutdown())
                };
                let swept = ledger.drain();
                let accepted = submitter.join().unwrap();
                let orphans = closer.join().unwrap();
                let leftovers = ledger.drain();
                let surfaced = swept.len() + orphans.len() + leftovers.len();
                assert_eq!(
                    surfaced,
                    usize::from(accepted),
                    "an accepted registration must surface exactly once \
                     (swept={swept:?} orphans={orphans:?} leftovers={leftovers:?})"
                );
                assert!(ledger.submit(8u32).is_err(), "post-shutdown submits must be refused");
            })
            .expect("no interleaving may lose or duplicate a registration");
        assert!(report.iterations > 1, "submit/shutdown orders must be explored");
    }

    /// Full close-exactly-once protocol: each party (sweeper, shutdown
    /// initiator, rejected registrant) closes what it owns; under every
    /// interleaving the driver is closed exactly once.
    #[test]
    fn driver_close_is_exactly_once_under_race() {
        use musuite_check::atomic::{AtomicUsize, Ordering};

        let report = Checker::new()
            .check(|| {
                let closes = Arc::new(AtomicUsize::new(0));
                let ledger: Arc<Ledger<Arc<AtomicUsize>>> = Arc::new(Ledger::new());
                let submitter = {
                    let ledger = ledger.clone();
                    let closes = closes.clone();
                    thread::spawn(move || {
                        if let Err(counter) = ledger.submit(closes) {
                            // Rejected: the registrant owns the close.
                            counter.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                };
                let sweeper = {
                    let ledger = ledger.clone();
                    thread::spawn(move || {
                        // Sweeper adopts, then (shutdown observed) closes.
                        for counter in ledger.drain() {
                            counter.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                };
                // Shutdown initiator closes the orphans.
                for counter in ledger.begin_shutdown() {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
                submitter.join().unwrap();
                sweeper.join().unwrap();
                for counter in ledger.drain() {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
                assert_eq!(closes.load(Ordering::SeqCst), 1, "driver closed exactly once");
            })
            .expect("no interleaving may close a driver zero or two times");
        assert!(report.iterations > 1);
    }

    /// The per-connection arm's attach/shutdown handoff: a connection is
    /// tracked while the edge shuts down and a reap races both, its runner
    /// exiting on its own meanwhile. By the time the attach and the
    /// shutdown have returned, the runner has made its close exactly once
    /// and been joined — whichever side won — and the edge keeps nothing.
    #[test]
    fn per_conn_attach_vs_shutdown_joins_every_runner_once() {
        use crate::buf::loopback_pair;
        use musuite_check::atomic::{AtomicUsize, Ordering};

        let report = Checker::new()
            .check(|| {
                let threads = Arc::new(ConnThreads::new("model", None));
                let closes = Arc::new(AtomicUsize::new(0));
                let (_peer, side) = loopback_pair();
                let stream = Arc::new(side);
                let attacher = {
                    let (threads, closes) = (threads.clone(), closes.clone());
                    thread::spawn(move || {
                        let runner = thread::spawn(move || {
                            closes.fetch_add(1, Ordering::SeqCst);
                        });
                        threads.track(LiveConn { stream, runner }).is_ok()
                    })
                };
                let reaper = {
                    let threads = threads.clone();
                    thread::spawn(move || threads.reap())
                };
                threads.shutdown();
                let tracked = attacher.join().unwrap();
                reaper.join().unwrap();
                assert_eq!(
                    closes.load(Ordering::SeqCst),
                    1,
                    "the runner must have closed once and been joined (tracked: {tracked})"
                );
                assert_eq!(threads.live.count(), 0, "no connection may outlive shutdown");
            })
            .expect("no interleaving may leave a runner unjoined or a connection live");
        assert!(report.iterations > 1, "attach/reap/shutdown orders must be explored");
    }
}
