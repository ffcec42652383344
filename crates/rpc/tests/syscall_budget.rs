//! Socket writes and reads per burst of ready work, as budgets: a
//! regression here is `sat_os_ops_per_req` (the `sendmsg` and `recvmsg`
//! shares) on every benchmark workload. Own test binary, because
//! `OsOpCounters::global()` is the process's.
//!
//! A loop thread — a connection's runner, a reactor sweeper, a dispatch
//! worker — writes what a burst produced once, when it runs out of ready
//! work, or earlier before a handler that says it runs long. No clock
//! decides where a burst ends, but the host can still split one (a runner
//! whose peer's bytes arrive in two reads), so a budget is asserted on the
//! best of a few rounds.

use bytes::Bytes;
use musuite_rpc::buf::flush_outbox;
use musuite_rpc::{
    burst, CallOptions, ExecutionModel, FanoutGroup, Frame, NetworkModel, RecvBuf, RequestContext,
    RpcClient, Server, ServerConfig, ServerStats, Service, Status,
};
use musuite_telemetry::counters::{OsOp, OsOpCounters};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The counters are process-wide: measured sections take turns.
static TURN: Mutex<()> = Mutex::new(());

fn turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const BURST: u64 = 16;
/// Writes a burst may cost: one, two if its bytes arrived in two reads.
/// The same in a debug build: how long a handler takes no longer matters.
const BUDGET: u64 = 2;
/// Reads a burst and its replies may cost: one on each side. Sixteen
/// frames of 100 bytes fit one receive chunk, so the server takes the
/// burst in one read, and the client the replies of one flush.
const READ_BUDGET: u64 = 2;
const ROUNDS: usize = 5;
const PATIENCE: Duration = Duration::from_secs(5);

fn sendmsgs() -> u64 {
    OsOpCounters::global().get(OsOp::SendMsg)
}

fn recvmsgs() -> u64 {
    OsOpCounters::global().get(OsOp::RecvMsg)
}

/// `count()`, once it has reached `want` or a second has passed: a write is
/// counted after the kernel has taken it, so its reader may get here first.
fn settled(count: impl Fn() -> u64, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(1);
    while count() < want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    count()
}

/// Answers with the request's bytes, after `delay` if there is one.
#[derive(Default)]
struct Echo {
    delay: Option<Duration>,
    /// Set: odd request ids run long instead, and say so — they flush, then
    /// wait for a word on this channel before they answer.
    odd_wait_for: Option<Mutex<mpsc::Receiver<()>>>,
    /// Set: a handler first waits until the server has admitted the whole
    /// burst (of the size given) its request id belongs to. That is what one CPU
    /// does by itself — the network thread runs until it blocks — and it
    /// makes a worker's ready work the same on any number of cores, where
    /// a worker as fast as its poller would otherwise run dry in between.
    whole_burst: OnceLock<(ServerStats, u64)>,
    /// Set: the reply is sent inside a `burst` of the handler's own.
    in_burst: bool,
}

impl Service for Echo {
    fn call(&self, ctx: RequestContext) {
        if let Some((stats, burst)) = self.whole_burst.get() {
            let deadline = Instant::now() + PATIENCE;
            while stats.requests() < (ctx.request_id() / burst + 1) * burst {
                assert!(Instant::now() < deadline, "the rest of the burst never arrived");
                std::thread::yield_now();
            }
        }
        if let Some(delay) = self.delay {
            std::thread::sleep(delay);
        }
        if let Some(go) = self.odd_wait_for.as_ref().filter(|_| ctx.request_id() % 2 == 1) {
            flush_outbox();
            let go = go.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            // Timing out answers anyway: the test has failed by then.
            let _ = go.recv_timeout(2 * PATIENCE);
        }
        let bytes = ctx.payload().clone();
        if self.in_burst {
            burst(|| ctx.respond_ok(bytes));
        } else {
            ctx.respond_ok(bytes);
        }
    }
}

fn echo_server(network: NetworkModel, execution: ExecutionModel) -> Server {
    spawn_echo(network, execution, Arc::default())
}

fn spawn_echo(network: NetworkModel, execution: ExecutionModel, echo: Arc<Echo>) -> Server {
    let mut config = ServerConfig::default();
    config.network_model(network).execution_model(execution).workers(1);
    Server::spawn(config, echo).expect("spawn echo server")
}

/// `count` request frames, ids from `first_id`, as one buffer.
fn requests(first_id: u64, count: u64) -> Vec<u8> {
    (first_id..first_id + count)
        .flat_map(|id| Frame::request(id, 1, vec![id as u8; 64]).to_bytes())
        .collect()
}

/// Reads `count` frames off `stream`, which has them or will shortly.
fn read_frames(buf: &mut RecvBuf, stream: &TcpStream, count: u64) -> Vec<Frame> {
    stream.set_read_timeout(Some(PATIENCE)).expect("set timeout");
    (0..count)
        .map(|_| buf.poll_frame(&mut &*stream).expect("readable").expect("a frame in time").0)
        .collect()
}

/// (a) Sixteen requests that arrive in one `write` are one burst of ready
/// work for whichever threads serve them, and come back in one flush, two
/// if the burst was split once. The server reads the burst in one read,
/// and the client the replies in another.
fn assert_burst_is_answered_in_two_flushes(network: NetworkModel, execution: ExecutionModel) {
    assert_burst_of(Echo::default(), network, execution);
}

fn assert_burst_of(echo: Echo, network: NetworkModel, execution: ExecutionModel) {
    let _turn = turn();
    let echo = Arc::new(echo);
    let server = spawn_echo(network, execution, echo.clone());
    if execution == ExecutionModel::Dispatch {
        // Inline, the network thread is the handler's: nothing to wait for.
        let _ = echo.whole_burst.set((server.stats().clone(), BURST));
    }
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    let mut buf = RecvBuf::default();
    let coalesce = server.stats().coalesce().clone();
    let (mut best, mut best_reads) = (u64::MAX, u64::MAX);
    for round in 0..ROUNDS as u64 {
        let (frames, flushes, reads) = (coalesce.frames(), coalesce.flushes(), recvmsgs());
        raw.write_all(&requests(round * BURST, BURST)).expect("send burst");
        let replies = read_frames(&mut buf, &raw, BURST);
        let ids: Vec<u64> = replies.iter().map(|frame| frame.header.request_id).collect();
        assert_eq!(ids, (round * BURST..(round + 1) * BURST).collect::<Vec<_>>());
        assert_eq!(coalesce.frames() - frames, BURST);
        best = best.min(coalesce.flushes() - flushes);
        best_reads = best_reads.min(recvmsgs() - reads);
    }
    assert!(
        best <= BUDGET,
        "{best} flushes for {BURST} responses under {network:?}/{execution:?}, budget {BUDGET}"
    );
    assert!(
        best_reads <= READ_BUDGET,
        "{best_reads} reads for {BURST} requests and their responses under \
         {network:?}/{execution:?}, budget {READ_BUDGET}"
    );
}

#[test]
fn a_burst_is_answered_in_two_flushes_by_a_dispatch_worker() {
    assert_burst_is_answered_in_two_flushes(
        NetworkModel::BlockingPerConn,
        ExecutionModel::Dispatch,
    );
}

/// A `burst` opened where a loop thread already defers its writes (here
/// a handler's, on a dispatch worker) leaves the flush to that loop: it
/// neither writes each reply at its own exit nor ends the worker's
/// deferring for the replies after it.
#[test]
fn a_burst_inside_a_dispatch_worker_s_handler_is_answered_in_two_flushes() {
    let echo = Echo { in_burst: true, ..Echo::default() };
    assert_burst_of(echo, NetworkModel::BlockingPerConn, ExecutionModel::Dispatch);
}

#[test]
fn a_burst_is_answered_in_two_flushes_inline_on_the_connection_thread() {
    assert_burst_is_answered_in_two_flushes(NetworkModel::BlockingPerConn, ExecutionModel::Inline);
}

#[test]
fn a_burst_is_answered_in_two_flushes_under_shared_pollers() {
    let network = NetworkModel::SharedPollers { pollers: 1 };
    assert_burst_is_answered_in_two_flushes(network, ExecutionModel::Dispatch);
    assert_burst_is_answered_in_two_flushes(network, ExecutionModel::Inline);
}

/// (b) The closed loop of the benchmark's generator: every completion
/// re-issues on its own connection. Sixteen responses read at once are
/// sixteen re-issues in one `sendmsg`, two if the burst was split once.
#[test]
fn reissues_from_a_burst_of_completions_leave_in_two_sendmsgs() {
    let _turn = turn();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let client =
        Arc::new(RpcClient::connect(listener.local_addr().expect("addr")).expect("connect"));
    let (mut peer, _) = listener.accept().expect("accept");
    let mut buf = RecvBuf::default();
    // Re-issues itself from its own completion, on the pick-up thread.
    fn issue(client: &Arc<RpcClient>) {
        let again = client.clone();
        client.call_async(1, vec![7u8; 64], move |result| {
            if result.is_ok() {
                issue(&again);
            }
        });
    }
    // From this thread every call is written at once.
    let before = sendmsgs();
    (0..BURST).for_each(|_| issue(&client));
    assert_eq!(sendmsgs() - before, BURST, "a user thread's calls are not deferred");
    let mut pending = read_frames(&mut buf, &peer, BURST);
    let mut best = u64::MAX;
    for _ in 0..ROUNDS {
        let answers: Vec<u8> = pending
            .iter()
            .flat_map(|request| {
                let header = &request.header;
                Frame::response(header.request_id, header.method, Status::Ok, vec![1]).to_bytes()
            })
            .collect();
        let before = sendmsgs();
        peer.write_all(&answers).expect("answer burst");
        pending = read_frames(&mut buf, &peer, BURST);
        best = best.min(sendmsgs() - before);
    }
    assert!(best <= BUDGET, "{best} sendmsg for {BURST} re-issued calls, budget {BUDGET}");
    client.shutdown();
}

/// A caller's `burst` is what a user thread has of a loop's coalescing:
/// eight calls on one client inside one cost one `sendmsg`, the same eight
/// outside it eight. The peer reads the frames and never replies, so every
/// `sendmsg` counted is the client's.
#[test]
fn eight_calls_in_a_burst_leave_in_one_sendmsg() {
    const CALLS: u64 = 8;
    let _turn = turn();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let client = RpcClient::connect(listener.local_addr().expect("addr")).expect("connect");
    let (peer, _) = listener.accept().expect("accept");
    let mut buf = RecvBuf::default();
    let issue = || (0..CALLS).for_each(|_| client.call_async(1, vec![7u8; 64], |_| {}));
    let before = sendmsgs();
    burst(issue);
    assert_eq!(sendmsgs() - before, 1, "a burst of {CALLS} calls is one write");
    read_frames(&mut buf, &peer, CALLS);
    let before = sendmsgs();
    issue();
    assert_eq!(sendmsgs() - before, CALLS, "outside a burst every call is its own write");
    read_frames(&mut buf, &peer, CALLS);
    client.shutdown();
}

/// (c) Nothing is deferred for a thread that is about to wait for the
/// answer: a synchronous call on an idle connection is on the wire before
/// the caller blocks, one write each way, as it always was.
#[test]
fn a_synchronous_call_costs_one_flush_each_way() {
    let _turn = turn();
    for network in [NetworkModel::BlockingPerConn, NetworkModel::SharedPollers { pollers: 1 }] {
        let server = echo_server(network, ExecutionModel::Dispatch);
        let client = RpcClient::connect(server.local_addr()).expect("connect");
        client.call(1, vec![0u8; 32]).expect("warm up");
        let coalesce = server.stats().coalesce().clone();
        settled(|| coalesce.flushes(), 1);
        let (frames, flushes, before) = (coalesce.frames(), coalesce.flushes(), sendmsgs());
        const CALLS: u64 = 100;
        for i in 0..CALLS {
            assert_eq!(client.call(1, vec![i as u8; 32]).expect("echo"), vec![i as u8; 32]);
        }
        assert_eq!(coalesce.frames() - frames, CALLS);
        let server_flushes = settled(|| coalesce.flushes() - flushes, CALLS);
        assert_eq!(server_flushes, CALLS, "one response, one write ({network:?})");
        assert_eq!(sendmsgs() - before, 2 * CALLS, "one write each way ({network:?})");
    }
}

/// Forwards every request to a leaf and answers with the leaf's answer,
/// blocking its own worker meanwhile: by a synchronous call when the
/// payload is odd-sized, by `call_async` plus `scatter_wait` when it is a
/// multiple of four, else by `call_async` and a wait of its own.
struct BlockingForwarder {
    leaf: RpcClient,
    group: FanoutGroup,
}

impl Service for BlockingForwarder {
    fn call(&self, ctx: RequestContext) {
        let payload = ctx.payload().clone();
        let reply = if payload.len() % 2 == 1 {
            self.leaf.call(1, payload)
        } else {
            // A call of its own first: it must not be stranded either.
            let (tx, rx) = mpsc::channel();
            self.leaf.call_async(1, payload.clone(), move |result| {
                let _ = tx.send(result);
            });
            if payload.len().is_multiple_of(4) {
                let gathered = self.group.scatter_wait(vec![(0usize, 1u32, payload)]);
                assert!(gathered.all_ok());
            } else {
                // The crate cannot see this wait coming; the handler says so.
                flush_outbox();
            }
            rx.recv_timeout(PATIENCE).expect("the call_async completes")
        };
        ctx.respond_ok(reply.expect("leaf answers"));
    }
}

/// (d) A handler on a worker thread — a loop thread, whose writes are
/// deferred — that waits for a call of its own does not wait on a request
/// still in its outbox: the crate's own waits flush first, and before a
/// wait of its own the handler does.
#[test]
fn a_handler_that_blocks_on_its_own_calls_is_not_stranded() {
    let _turn = turn();
    let leaf = echo_server(NetworkModel::BlockingPerConn, ExecutionModel::Dispatch);
    let forwarder = Arc::new(BlockingForwarder {
        leaf: RpcClient::connect(leaf.local_addr()).expect("connect leaf"),
        group: FanoutGroup::connect(&[leaf.local_addr()]).expect("connect group"),
    });
    let mut config = ServerConfig::default();
    config.workers(1);
    let mid = Server::spawn(config, forwarder).expect("spawn mid-tier");
    let client = RpcClient::connect(mid.local_addr()).expect("connect mid-tier");
    for len in [33usize, 32, 30] {
        let opts = CallOptions::within(PATIENCE);
        let reply = client.call_opts(1, vec![9u8; len], opts).expect("forwarded in time");
        assert_eq!(reply, Bytes::from(vec![9u8; len]));
    }
}

/// (e) A handler that runs long and says so — a raw `Service` by calling
/// `flush_outbox`, a typed one by its `runs_long` — sends the reply held
/// in front of it before it starts. The long handler waits for the test to
/// have read that reply: were the reply still held, neither would move,
/// and the read would give up after `PATIENCE`. Whichever thread runs the
/// handlers.
#[test]
fn the_reply_ahead_of_a_declared_long_handler_leaves_before_it_starts() {
    let _turn = turn();
    for execution in [ExecutionModel::Inline, ExecutionModel::Dispatch] {
        let (go, wait) = mpsc::channel();
        let echo = Arc::new(Echo { odd_wait_for: Some(Mutex::new(wait)), ..Echo::default() });
        let server = spawn_echo(NetworkModel::BlockingPerConn, execution, echo.clone());
        if execution == ExecutionModel::Dispatch {
            // Both are queued before the first is handled: the worker does
            // not run dry between them.
            let _ = echo.whole_burst.set((server.stats().clone(), 2));
        }
        let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
        let mut buf = RecvBuf::default();
        raw.write_all(&requests(0, 2)).expect("send both");
        let first = read_frames(&mut buf, &raw, 1);
        assert_eq!(first[0].header.request_id, 0, "under {execution:?}");
        go.send(()).expect("the long handler is waiting");
        assert_eq!(read_frames(&mut buf, &raw, 1)[0].header.request_id, 1);
    }
}

/// (f) A handler that runs long without saying so holds up the replies in
/// front of it, and they leave with its own when the worker runs out of
/// ready work: two slow requests queued together are answered in one
/// write, where a clock between items used to write after each.
#[test]
fn an_undeclared_slow_handler_s_reply_leaves_when_the_queue_runs_dry() {
    let _turn = turn();
    let echo = Arc::new(Echo { delay: Some(Duration::from_millis(2)), ..Echo::default() });
    let server = spawn_echo(NetworkModel::BlockingPerConn, ExecutionModel::Dispatch, echo.clone());
    let _ = echo.whole_burst.set((server.stats().clone(), 2));
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let coalesce = server.stats().coalesce().clone();
    raw.write_all(&requests(0, 2)).expect("send both");
    let replies = read_frames(&mut RecvBuf::default(), &raw, 2);
    assert_eq!(replies.len(), 2);
    // Given the time a second write would take to be counted.
    let flushes = settled(|| coalesce.flushes(), 2);
    assert_eq!((coalesce.frames(), flushes), (2, 1), "both in one write");
}

/// Not a test: the latency behind the flush rule (EXPERIMENTS.md, "What
/// `runs_long` buys"). Bursts of sixteen requests, each naming how long its
/// handler computes, to a one-worker server; prints when the replies
/// arrive, counted from the burst's `write`, once with handlers that
/// declare the runs of 20 µs or more long (flushing first, as a typed
/// handler's `runs_long` makes its service do) and once with none that do.
/// `cargo test --release -p musuite-rpc --test syscall_budget --
/// --ignored --nocapture`.
#[test]
#[ignore = "prints a latency table"]
fn report_reply_latency_by_handler_time() {
    let _turn = turn();
    println!("| handlers | build | first reply p50 us | mean reply p50 us | last reply p50 us | writes per burst |");
    println!("|---|---|---|---|---|---|");
    for (build, declared) in [("declared", true), ("no declarations", false)] {
        // Computes for the microseconds its payload opens with.
        let spin = move |ctx: RequestContext| {
            let micros = u64::from_le_bytes(ctx.payload()[..8].try_into().expect("8 bytes"));
            if declared && micros >= 20 {
                flush_outbox();
            }
            let until = Instant::now() + Duration::from_micros(micros);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            ctx.respond_ok(Vec::new());
        };
        let mut config = ServerConfig::default();
        config.workers(1);
        let server = Server::spawn(config, Arc::new(spin)).expect("spawn");
        report_latency(&server, build);
    }
}

fn report_latency(server: &Server, build: &str) {
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    let mut buf = RecvBuf::default();
    let coalesce = server.stats().coalesce().clone();
    type Micros = fn(u64) -> u64;
    let patterns: [(&str, Micros); 5] = [
        ("16 x 1 us", |_| 1),
        ("16 x 10 us", |_| 10),
        ("16 x 75 us", |_| 75),
        ("1 us / 75 us alternating", |i| if i % 2 == 0 { 1 } else { 75 }),
        ("12 x 2 us, every 4th 150 us", |i| if i % 4 == 3 { 150 } else { 2 }),
    ];
    const BURSTS: usize = 400;
    for (name, micros) in patterns {
        let burst: Vec<u8> = (0..BURST)
            .flat_map(|i| Frame::request(i, 1, micros(i).to_le_bytes().to_vec()).to_bytes())
            .collect();
        let (mut first, mut mean, mut last) = (Vec::new(), Vec::new(), Vec::new());
        let flushes = coalesce.flushes();
        for _ in 0..BURSTS {
            let sent = Instant::now();
            raw.write_all(&burst).expect("send burst");
            let at: Vec<f64> = (0..BURST)
                .map(|_| {
                    read_frames(&mut buf, &raw, 1);
                    sent.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            first.push(at[0]);
            mean.push(at.iter().sum::<f64>() / at.len() as f64);
            last.push(at[at.len() - 1]);
        }
        let writes = settled(|| coalesce.flushes(), 0) - flushes;
        let p50 = |samples: &mut Vec<f64>| {
            samples.sort_by(f64::total_cmp);
            samples[samples.len() / 2]
        };
        println!(
            "| {name} | {build} | {:.0} | {:.0} | {:.0} | {:.1} |",
            p50(&mut first),
            p50(&mut mean),
            p50(&mut last),
            writes as f64 / BURSTS as f64
        );
    }
}
