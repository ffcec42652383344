//! A std-only readiness reactor: the paper's fixed network-poller pool.
//!
//! The mid-tier of Fig. 8 drives *all* of its connections from a small,
//! fixed set of network poller threads that feed the dispatch queue — the
//! thread count at the network edge is an architectural constant, not a
//! function of how many clients are connected. This module reproduces
//! that design without `epoll` bindings (no `unsafe`, no new
//! dependencies): every registered socket is switched to non-blocking
//! mode and partitioned across `pollers` *sweep threads*. Each sweep
//! thread loops over its shard, asking each connection's [`RecvBuf`] to
//! read whatever bytes the kernel has buffered; complete frames are handed
//! to the connection's [`ConnDriver`] (the server's dispatch path or the
//! client's in-flight completion path).
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
//! These are the dispatch queue's rule and budgets: the *n*-th empty sweep
//! in a row yields while *n* is within the mode's spin budget (none under
//! `Block`, no end under `Poll`, 64 under `Adaptive`), and parks after it.
//!
//! Fairness: one connection may drain at most `sweep_budget` frames per
//! sweep before the thread moves on, so a chatty peer cannot starve its
//! shard-mates; frames it has read but not drained stay in its receive
//! buffer and go first in the next sweep, which is therefore never empty.
//!
//! Registration is lock-free for the sweeper in the steady state: new
//! connections land in the shard's `Ledger` and are adopted at the top
//! of the next sweep, after which the connection is owned *exclusively*
//! by its sweep thread — read buffers are never shared. Deregistration
//! happens either by the driver (`Drive::Close`), by I/O error or EOF, by
//! idle timeout, or by reactor shutdown; in every case the driver's
//! `on_close` runs exactly once (the handoff between a racing `register`
//! and `shutdown` is model-checked under `musuite_check`).
//!
//! The thread-per-connection arm of [`NetworkModel`](crate::NetworkModel)
//! runs the same [`ConnDriver`]s under a second runner,
//! `spawn_blocking_runner`; a driver cannot tell which feeds it, so the
//! two models are an ablation of the wait, not of the protocol.

use crate::buf::{flush_outbox, DeferScope, RecvBuf};
use crate::config::WaitMode;
use crate::error::RpcError;
use musuite_check::atomic::{AtomicBool, AtomicUsize, Ordering};
use musuite_check::sync::{Condvar, Mutex};
use musuite_check::thread::{Builder, JoinHandle};
use musuite_codec::Frame;
use musuite_telemetry::counters::{OsOp, OsOpCounters};
use musuite_telemetry::netpoll::{ReactorEvent, ReactorStats};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
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
/// thread of its own (`spawn_blocking_runner`).
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

/// The thread-per-connection runner: spawns a thread named `name` that
/// blocks on `stream`, hands every frame to `driver`, and closes the
/// socket when the peer hangs up or sends a bad frame, when the driver
/// says [`Drive::Close`], when a read timeout set on the socket passes with
/// no frame in flight ([`CloseReason::Idle`]), or once `stop` is set — the
/// owner sets it and then shuts the socket down to interrupt the wait.
/// `on_close` is the thread's last act.
///
/// OS-op analogs, per the paper's syscall profile: one `epoll_pwait` per
/// wait entered with no complete frame buffered, one `recvmsg` per `read`
/// that returned data (counted by the [`RecvBuf`]), one `close` per
/// connection. Frames that arrived together cost one of each — and so does
/// what handling them sends: the thread is a [`DeferScope`] that flushes
/// when no complete frame is left, before it waits for the next.
pub(crate) fn spawn_blocking_runner<D: ConnDriver + 'static>(
    name: &str,
    stream: TcpStream,
    mut driver: D,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    let counters = OsOpCounters::global();
    counters.incr(OsOp::Clone);
    Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let mut buf = RecvBuf::default();
            // Dropped after `on_close`: what that queued is written too.
            let _outbox = DeferScope::enter();
            let reason = loop {
                if !buf.has_frame() {
                    flush_outbox();
                    counters.incr(OsOp::EpollPwait);
                }
                let verdict = buf
                    .poll_frame(&mut &stream)
                    .map(|got| got.map(|(frame, rx_start_ns)| driver.on_frame(frame, rx_start_ns)));
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
            // Both halves, explicitly: other handles to this socket exist
            // (the write half, the owner's), so dropping ours would leave
            // the peer waiting on a silent connection.
            let _ = stream.shutdown(Shutdown::Both);
            counters.incr(OsOp::Close);
            driver.on_close(reason);
        })
        .expect("spawn connection runner") // lint: allow(expect): a connection is dead without its runner
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
        let stop: Box<dyn FnOnce()> = match runner {
            Runner::Sweeper => {
                let reactor = Reactor::start(ReactorConfig {
                    pollers: 1,
                    idle_timeout,
                    ..ReactorConfig::default()
                });
                reactor.register(side, Box::new(driver)).unwrap();
                // Dropped right after, which shuts down again: idempotent.
                Box::new(move || reactor.shutdown())
            }
            Runner::Blocking => {
                side.set_read_timeout(idle_timeout).unwrap();
                let owner = side.try_clone().unwrap();
                let stop = Arc::new(AtomicBool::new(false));
                let runner = spawn_blocking_runner("test", side, driver, stop.clone());
                Box::new(move || {
                    stop.store(true, Ordering::Release);
                    let _ = owner.shutdown(Shutdown::Both);
                    runner.join().unwrap();
                })
            }
        };
        Running { peer, stop }
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
}
