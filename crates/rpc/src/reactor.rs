//! A std-only readiness reactor: the paper's fixed network-poller pool.
//!
//! The mid-tier of Fig. 8 drives *all* of its connections from a small,
//! fixed set of network poller threads that feed the dispatch queue — the
//! thread count at the network edge is an architectural constant, not a
//! function of how many clients are connected. This module reproduces
//! that design without `epoll` bindings (no `unsafe`, no new
//! dependencies): every registered socket is switched to non-blocking
//! mode and partitioned across `pollers` *sweep threads*. Each sweep
//! thread loops over its shard, asking each connection's
//! [`FrameAccumulator`] to absorb whatever bytes the kernel has buffered;
//! complete frames are handed to the connection's [`ConnDriver`] (the
//! server's dispatch path or the client's in-flight completion path).
//!
//! Between *empty* sweeps — no shard connection had a complete frame —
//! the thread waits according to [`WaitMode`], extending the paper's
//! block- vs poll-based trade-off to the network edge:
//!
//! * [`WaitMode::Poll`] — `yield_now` and sweep again: lowest latency,
//!   one core burned per poller.
//! * [`WaitMode::Block`] — park on the shard's registration condvar with
//!   an escalating timeout (20 µs doubling to 640 µs). A condvar cannot
//!   observe socket readiness, so the timed park is this reactor's
//!   stand-in for `epoll_pwait`: freshly idle shards wake quickly (the
//!   paper's wakeup-latency cost, kept small), long-idle shards converge
//!   to a few wakeups per millisecond (the CPU-conservation benefit).
//! * [`WaitMode::Adaptive`] — spin-yield for a budget of empty sweeps,
//!   then fall back to the escalating park.
//!
//! Fairness: one connection may drain at most `sweep_budget` frames per
//! sweep before the thread moves on, so a chatty peer cannot starve its
//! shard-mates; undrained bytes stay in the kernel buffer for the next
//! sweep.
//!
//! Registration is lock-free for the sweeper in the steady state: new
//! connections land in the shard's [`Ledger`] and are adopted at the top
//! of the next sweep, after which the connection is owned *exclusively*
//! by its sweep thread — read buffers are never shared. Deregistration
//! happens either by the driver (`Drive::Close`), by I/O error or EOF, by
//! idle timeout, or by reactor shutdown; in every case the driver's
//! `on_close` runs exactly once (the handoff between a racing `register`
//! and `shutdown` is model-checked under `musuite_check`).

use crate::buf::{BufferPool, FrameAccumulator};
use crate::config::WaitMode;
use crate::error::RpcError;
use musuite_check::atomic::{AtomicBool, AtomicUsize, Ordering};
use musuite_check::sync::{Condvar, Mutex};
use musuite_check::thread::{Builder, JoinHandle};
use musuite_codec::Frame;
use musuite_telemetry::netpoll::ReactorStats;
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle buffers retained per reactor for connection churn.
const MAX_IDLE_READ_BUFFERS: usize = 64;
/// First timed park after a shard goes idle.
const PARK_MIN: Duration = Duration::from_micros(20);
/// Escalation ceiling: 20 µs << 5.
const PARK_MAX_SHIFT: u32 = 5;
/// Empty sweeps an `Adaptive` poller spins through before parking.
const ADAPTIVE_SPIN_SWEEPS: u32 = 64;

/// What a [`ConnDriver`] tells the reactor after each frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Keep sweeping this connection.
    Continue,
    /// Close the connection (driver-initiated hangup).
    Close,
}

/// Why a connection left the reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer hung up, the stream errored, or the driver asked to close.
    Disconnect,
    /// No traffic within the configured idle timeout.
    Idle,
    /// The reactor is shutting down.
    Shutdown,
}

/// Per-connection protocol logic plugged into the reactor.
///
/// The reactor owns the socket's read half and the frame-assembly buffer;
/// the driver only sees complete frames. `on_close` is called exactly
/// once, whatever the connection's fate — it is where a server releases
/// conn-table state and a client fails its in-flight calls.
pub trait ConnDriver: Send {
    /// Handles one complete frame. `rx_start_ns` is the monotonic
    /// timestamp at which the frame's first byte arrived (for NetRx
    /// stage attribution).
    fn on_frame(&mut self, frame: Frame, rx_start_ns: u64) -> Drive;

    /// Final callback when the connection leaves the reactor.
    fn on_close(&mut self, reason: CloseReason);
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
    /// Drop connections with no traffic for this long (`None` = never).
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

impl std::fmt::Debug for Registration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registration").field("stream", &self.stream).finish()
    }
}

/// The registration mailbox between `register` callers and one sweep
/// thread, doubling as the shard's park point.
///
/// Exactly-once handoff invariant (model-checked): an item accepted by
/// [`Ledger::submit`] is collected by *either* the sweeper's
/// [`Ledger::drain`] *or* the shutdown initiator's
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
    stats: ReactorStats,
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
        let stats = ReactorStats::new();
        let live = Arc::new(AtomicUsize::new(0));
        let pool = BufferPool::new(MAX_IDLE_READ_BUFFERS);
        let shards = (0..config.pollers)
            .map(|i| {
                let ledger = Arc::new(Ledger::new());
                let params = SweepParams {
                    ledger: ledger.clone(),
                    pool: pool.clone(),
                    stats: stats.clone(),
                    live: live.clone(),
                    wait_mode: config.wait_mode,
                    sweep_budget: config.sweep_budget,
                    idle_timeout: config.idle_timeout,
                };
                // Thread-spawn failure at startup is unrecoverable,
                // matching the server's worker pool.
                let handle = Builder::new()
                    .name(format!("musuite-reactor-{i}"))
                    .spawn(move || run_sweeper(params))
                    .expect("spawn reactor sweeper"); // lint: allow(expect)
                Shard { ledger, sweeper: Mutex::new(Some(handle)) }
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
    /// Idempotent; joins the sweepers before returning.
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
    pool: BufferPool,
    stats: ReactorStats,
    live: Arc<AtomicUsize>,
    wait_mode: WaitMode,
    sweep_budget: usize,
    idle_timeout: Option<Duration>,
}

/// A connection owned by one sweep thread.
struct Conn {
    stream: TcpStream,
    acc: FrameAccumulator,
    driver: Box<dyn ConnDriver>,
    last_activity: Instant,
}

fn close_conn(mut conn: Conn, reason: CloseReason, stats: &ReactorStats, live: &AtomicUsize) {
    let _ = conn.stream.shutdown(Shutdown::Both);
    // Counted out before the driver hears of it: whoever `on_close` wakes
    // must not still see this connection as live.
    stats.record_closed();
    live.fetch_sub(1, Ordering::AcqRel);
    conn.driver.on_close(reason);
}

/// The sweep loop proper. A stuck sweeper stalls timers and frame
/// delivery for every connection on the shard, so everything reachable
/// from here must stay nonblocking — enforced statically by the
/// `musuite-analyze` reachability pass.
#[musuite_marker::nonblocking]
fn run_sweeper(params: SweepParams) {
    let SweepParams { ledger, pool, stats, live, wait_mode, sweep_budget, idle_timeout } = params;
    let mut conns: Vec<Conn> = Vec::new();
    let mut idle_streak: u32 = 0;
    loop {
        for reg in ledger.drain() {
            stats.record_registered();
            live.fetch_add(1, Ordering::AcqRel);
            conns.push(Conn {
                stream: reg.stream,
                acc: FrameAccumulator::new(pool.acquire()),
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
            // to the shard's next connection; surplus bytes wait in the
            // kernel buffer.
            while frames_this_conn < sweep_budget {
                match conn.acc.poll_frame(&mut conn.stream) {
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
                    if !conn.acc.mid_frame() && now.duration_since(conn.last_activity) >= timeout {
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
        if drained > 0 {
            idle_streak = 0;
            continue;
        }
        idle_streak = idle_streak.saturating_add(1);
        match wait_mode {
            WaitMode::Poll => {
                stats.record_yield();
                musuite_check::thread::yield_now();
            }
            WaitMode::Block => park(&ledger, &stats, idle_streak),
            WaitMode::Adaptive => {
                if idle_streak <= ADAPTIVE_SPIN_SWEEPS {
                    stats.record_yield();
                    musuite_check::thread::yield_now();
                } else {
                    park(&ledger, &stats, idle_streak - ADAPTIVE_SPIN_SWEEPS);
                }
            }
        }
    }
}

/// Timed park with escalation: a freshly idle shard wakes after 20 µs (so
/// request bursts pay little wakeup latency), a long-idle shard converges
/// to 640 µs parks (so idle reactors cost ~1.5k wakeups/s, not a core).
fn park(ledger: &Ledger<Registration>, stats: &ReactorStats, streak: u32) {
    let shift = streak.saturating_sub(1).min(PARK_MAX_SHIFT);
    stats.record_park();
    ledger.park(PARK_MIN * (1 << shift));
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_codec::frame::FrameHeader;
    use musuite_codec::{FrameKind, Status};
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::mpsc;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

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

    #[test]
    fn peer_hangup_closes_with_disconnect() {
        let reactor = Reactor::start(ReactorConfig::default());
        let (peer, reactor_side) = loopback_pair();
        let (driver, _frames, closes) = probe();
        reactor.register(reactor_side, Box::new(driver)).unwrap();
        drop(peer);
        let reason = closes.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reason, CloseReason::Disconnect);
        assert_eq!(reactor.live_connections(), 0);
    }

    #[test]
    fn corrupt_bytes_close_the_connection() {
        let reactor = Reactor::start(ReactorConfig::default());
        let (mut peer, reactor_side) = loopback_pair();
        let (driver, _frames, closes) = probe();
        reactor.register(reactor_side, Box::new(driver)).unwrap();
        peer.write_all(&[0u8; 64]).unwrap();
        let reason = closes.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reason, CloseReason::Disconnect);
    }

    #[test]
    fn driver_close_verdict_is_honored() {
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
        let reactor = Reactor::start(ReactorConfig::default());
        let (mut peer, reactor_side) = loopback_pair();
        let (ctx, crx) = mpsc::channel();
        reactor.register(reactor_side, Box::new(OneShot { closes: ctx })).unwrap();
        peer.write_all(&Frame::request(1, 1, Vec::new()).to_bytes()).unwrap();
        assert_eq!(crx.recv_timeout(Duration::from_secs(5)).unwrap(), CloseReason::Disconnect);
    }

    #[test]
    fn idle_connections_are_reaped_mid_frame_spared() {
        let reactor = Reactor::start(ReactorConfig {
            idle_timeout: Some(Duration::from_millis(50)),
            ..ReactorConfig::default()
        });
        let (mut idle_peer, idle_side) = loopback_pair();
        let (mut busy_peer, busy_side) = loopback_pair();
        let (idle_driver, _f1, idle_closes) = probe();
        let (busy_driver, _f2, busy_closes) = probe();
        reactor.register(idle_side, Box::new(idle_driver)).unwrap();
        reactor.register(busy_side, Box::new(busy_driver)).unwrap();
        // The busy peer keeps one frame perpetually half-sent: it must
        // not be reaped even though no *complete* frame ever arrives.
        let frame_bytes = Frame::request(1, 1, vec![7u8; 1000]).to_bytes();
        let deadline = Instant::now() + Duration::from_millis(300);
        let mut sent = 0usize;
        let mut reap_reason = None;
        while Instant::now() < deadline {
            if sent < frame_bytes.len() - 1 {
                busy_peer.write_all(&frame_bytes[sent..sent + 1]).unwrap();
                sent += 1;
            }
            if reap_reason.is_none() {
                if let Ok(reason) = idle_closes.try_recv() {
                    reap_reason = Some(reason);
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(reap_reason, Some(CloseReason::Idle), "idle conn must be reaped");
        assert!(busy_closes.try_recv().is_err(), "mid-frame conn must survive");
        // The reaped socket is actually dead: the peer sees EOF.
        let mut scratch = [0u8; 8];
        use std::io::Read;
        idle_peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(idle_peer.read(&mut scratch).unwrap_or(0), 0);
        reactor.shutdown();
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
    fn shutdown_is_idempotent_and_closes_exactly_once() {
        let reactor = Reactor::start(ReactorConfig { pollers: 1, ..ReactorConfig::default() });
        let (_peer, reactor_side) = loopback_pair();
        let (driver, _frames, closes) = probe();
        reactor.register(reactor_side, Box::new(driver)).unwrap();
        reactor.shutdown();
        reactor.shutdown();
        assert_eq!(closes.recv_timeout(Duration::from_secs(5)).unwrap(), CloseReason::Shutdown);
        assert!(closes.try_recv().is_err(), "on_close must run exactly once");
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
        assert!(reactor.stats().sweeps() >= 20);
    }

    #[test]
    fn stats_observe_traffic_and_lifecycle() {
        let reactor = Reactor::start(ReactorConfig::default());
        let (mut peer, reactor_side) = loopback_pair();
        let (driver, frames, _closes) = probe();
        reactor.register(reactor_side, Box::new(driver)).unwrap();
        let header = FrameHeader::new(FrameKind::OneWay, 0, 2, Status::Ok);
        let frame = Frame { header, payload: bytes::Bytes::new() };
        peer.write_all(&frame.to_bytes()).unwrap();
        frames.recv_timeout(Duration::from_secs(5)).unwrap();
        let stats = reactor.stats().clone();
        assert_eq!(stats.registered(), 1);
        assert_eq!(stats.frames(), 1);
        assert!(stats.sweeps() >= 1);
        reactor.shutdown();
        assert_eq!(reactor.stats().closed(), 1);
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
}
