//! Load generation: one generator thread, two connections.
//!
//! A thread-per-client closed loop is unusable on a 2-vCPU shared VM (each
//! blocked hand-off waits for the host to wake an idle vCPU, and identical
//! runs differ severalfold), so the closed loop keeps a fixed number of
//! `call_async` requests in flight and re-issues from the completion. The
//! open loop sends on a precomputed Poisson schedule and times each
//! request from when it was *due*, so a generator stall shows up as
//! latency and as `loadgen.lateness_*`, not as a gap in the load.
//!
//! Every response is compared byte for byte with the reference replay.

use crate::trace::Span;
use bytes::Bytes;
use musuite_core::cluster::QUERY_METHOD;
use musuite_loadgen::arrival::ArrivalProcess;
use musuite_rpc::{RpcClient, RpcError};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const CONNECTIONS: usize = 2;
/// Closed-loop requests in flight, split evenly over the connections.
pub const IN_FLIGHT: usize = 32;
/// How long a phase waits for its last responses before counting them lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// What the generator sends and what must come back.
pub struct Traffic {
    pub clients: Vec<Arc<RpcClient>>,
    pub requests: Vec<Bytes>,
    /// The response each request must get, byte for byte; empty when only
    /// success is checked (preload acks).
    pub expected: Vec<Bytes>,
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, ns since the phase began.
    pub done_ns: u64,
    /// Closed loop: send → completion. Open loop: due time → completion.
    pub latency_ns: u64,
}

#[derive(Debug, Default)]
pub struct PhaseResult {
    pub samples: Vec<Sample>,
    /// Requests issued.
    pub attempted: u64,
    /// Completed with an RPC error (refused, shed, expired, disconnected).
    pub failed: u64,
    /// Completed with bytes that differ from the reference replay.
    pub wrong: u64,
    /// Still unanswered when the drain timeout ran out.
    pub lost: u64,
    /// The first RPC error or wrong response of the phase, for the notes.
    pub first_bad: Option<String>,
    /// Open loop only: send time − due time, per request, ns.
    pub lateness_ns: Vec<u64>,
    /// Generator-side spans, when asked for.
    pub spans: Vec<Span>,
    /// Closed loop only: cumulative counters at the start of the phase and
    /// at the end of every [`SLICE`].
    pub slices: Vec<Slice>,
}

/// The closed loop is cut into slices of this length; the open loop's
/// samples are grouped the same way by due time. Host interference on a
/// shared VM comes in episodes of seconds and only ever slows things down,
/// so each metric is computed per slice and the run reports the quartile
/// of the slices on the metric's good side: the episodes fall in the
/// other quartiles unless they cover most of the run.
pub const SLICE: Duration = Duration::from_millis(250);

#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Time since the phase began.
    pub at_ns: u64,
    /// Successful completions so far.
    pub completed: u64,
    pub probe: Probe,
}

/// Process-wide counters the caller samples at slice boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub cpu_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl PhaseResult {
    pub fn bad(&self) -> u64 {
        self.failed + self.wrong + self.lost
    }
}

struct Phase {
    traffic: Arc<Traffic>,
    epoch: Instant,
    cursor: AtomicUsize,
    limit: usize,
    stop: AtomicBool,
    inflight: AtomicUsize,
    completed: AtomicU64,
    failed: AtomicU64,
    wrong: AtomicU64,
    record_spans: bool,
    logs: Vec<Mutex<ConnLog>>,
    first_bad: Mutex<Option<String>>,
}

#[derive(Default)]
struct ConnLog {
    samples: Vec<Sample>,
    spans: Vec<Span>,
}

impl Phase {
    fn new(traffic: &Arc<Traffic>, limit: usize, reserve: usize, record_spans: bool) -> Arc<Phase> {
        Arc::new(Phase {
            traffic: traffic.clone(),
            epoch: Instant::now(),
            cursor: AtomicUsize::new(0),
            limit,
            stop: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            wrong: AtomicU64::new(0),
            record_spans,
            logs: (0..traffic.clients.len())
                .map(|_| {
                    Mutex::new(ConnLog {
                        samples: Vec::with_capacity(reserve),
                        spans: Vec::with_capacity(if record_spans { reserve } else { 0 }),
                    })
                })
                .collect(),
            first_bad: Mutex::new(None),
        })
    }

    fn note_bad(&self, index: usize, what: String) {
        let at = self.epoch.elapsed();
        self.first_bad
            .lock()
            .expect("completion callbacks do not panic")
            .get_or_insert_with(|| format!("request {index} at {at:.3?}: {what}"));
    }

    /// Records one completion; returns whether the call succeeded.
    fn complete(
        &self,
        conn: usize,
        index: usize,
        from: Instant,
        result: Result<Bytes, RpcError>,
    ) -> bool {
        let now = Instant::now();
        let slot = index % self.traffic.requests.len();
        let ok = match result {
            Ok(bytes) => {
                if self.traffic.expected.get(slot).is_some_and(|expected| *expected != bytes) {
                    self.wrong.fetch_add(1, Ordering::Relaxed);
                    self.note_bad(index, format!("wrong response to request slot {slot}"));
                }
                true
            }
            Err(error) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                self.note_bad(index, format!("{error:?}"));
                false
            }
        };
        let done_ns = now.saturating_duration_since(self.epoch).as_nanos() as u64;
        let latency_ns = now.saturating_duration_since(from).as_nanos() as u64;
        // Only this connection's pick-up thread completes on this log, so
        // the lock is uncontended; it exists to hand the log back safely.
        let mut log = self.logs[conn].lock().expect("completion callbacks do not panic");
        if ok {
            log.samples.push(Sample { done_ns, latency_ns });
            self.completed.fetch_add(1, Ordering::Relaxed);
        }
        if self.record_spans {
            let id = log.spans.len() as u32 + 1;
            log.spans.push(Span {
                name: "client.call",
                request: index as u32,
                id,
                parent: 0,
                start_ns: done_ns.saturating_sub(latency_ns),
                end_ns: done_ns,
            });
        }
        ok
    }

    fn closed_issue(self: &Arc<Phase>, conn: usize) {
        if self.stop.load(Ordering::Relaxed) {
            return;
        }
        let index = self.cursor.fetch_add(1, Ordering::Relaxed);
        if index >= self.limit {
            return;
        }
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let payload = self.traffic.requests[index % self.traffic.requests.len()].clone();
        let phase = self.clone();
        let sent = Instant::now();
        self.traffic.clients[conn].call_async(QUERY_METHOD, payload, move |result| {
            // A failed call does not re-issue: a dead connection fails
            // calls synchronously and would recurse without bound.
            if phase.complete(conn, index, sent, result) {
                phase.closed_issue(conn);
            }
            phase.inflight.fetch_sub(1, Ordering::SeqCst);
        });
    }

    /// Waits for in-flight requests to drain, then collects the logs.
    fn finish(self: &Arc<Phase>, lateness_ns: Vec<u64>) -> PhaseResult {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.inflight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut result = PhaseResult {
            attempted: self.cursor.load(Ordering::Relaxed).min(self.limit) as u64,
            failed: self.failed.load(Ordering::Relaxed),
            wrong: self.wrong.load(Ordering::Relaxed),
            lost: self.inflight.load(Ordering::SeqCst) as u64,
            lateness_ns,
            first_bad: self.first_bad.lock().expect("completion callbacks do not panic").take(),
            ..PhaseResult::default()
        };
        for log in &self.logs {
            let mut log = log.lock().expect("completion callbacks do not panic");
            result.samples.append(&mut log.samples);
            result.spans.append(&mut log.spans);
        }
        result.samples.sort_unstable_by_key(|s| s.done_ns);
        result
    }
}

/// Closed loop: [`IN_FLIGHT`] requests outstanding until `duration` passes.
/// The generator thread calls `probe` at the start, at every slice
/// boundary, and once more after the last response has come back.
pub fn closed_loop(
    traffic: &Arc<Traffic>,
    duration: Duration,
    record_spans: bool,
    probe: &dyn Fn() -> Probe,
) -> PhaseResult {
    let reserve = (duration.as_secs_f64() * 50_000.0) as usize + 1_024;
    let phase = Phase::new(traffic, usize::MAX, reserve, record_spans);
    let snapshot = |phase: &Phase| Slice {
        at_ns: phase.epoch.elapsed().as_nanos() as u64,
        completed: phase.completed.load(Ordering::Relaxed),
        probe: probe(),
    };
    let mut slices = vec![snapshot(&phase)];
    for slot in 0..IN_FLIGHT {
        phase.closed_issue(slot % traffic.clients.len());
    }
    let end = phase.epoch + duration;
    let mut boundary = phase.epoch + SLICE;
    // Every slot dying (a closed connection) ends the phase early.
    while phase.inflight.load(Ordering::SeqCst) > 0 {
        let now = Instant::now();
        if now >= boundary {
            slices.push(snapshot(&phase));
            boundary += SLICE;
        }
        if now >= end {
            break;
        }
        std::thread::sleep(boundary.min(end).saturating_duration_since(now));
    }
    phase.stop.store(true, Ordering::SeqCst);
    let mut result = phase.finish(Vec::new());
    // After the drain, so that first-to-last covers exactly the requests
    // in `samples` (the per-request counts divide by them).
    slices.push(snapshot(&phase));
    result.slices = slices;
    result
}

/// Sends every request exactly once, [`IN_FLIGHT`] at a time (preload).
pub fn send_all(traffic: &Arc<Traffic>) -> PhaseResult {
    let phase = Phase::new(traffic, traffic.requests.len(), traffic.requests.len(), false);
    for slot in 0..IN_FLIGHT {
        phase.closed_issue(slot % traffic.clients.len());
    }
    // `finish` only bounds the drain; bound the issue side the same way.
    let deadline = Instant::now() + Duration::from_secs(60);
    while phase.cursor.load(Ordering::Relaxed) < phase.limit
        && phase.inflight.load(Ordering::SeqCst) > 0
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_micros(500));
    }
    phase.stop.store(true, Ordering::SeqCst);
    phase.finish(Vec::new())
}

/// Due times (ns from phase start) of a Poisson process at `rate`/s over
/// `duration`, a pure function of `seed`.
pub fn poisson_schedule(rate: f64, duration: Duration, seed: u64) -> Vec<u64> {
    let mut process = ArrivalProcess::poisson(rate, seed);
    let horizon = duration.as_nanos() as u64;
    let mut due = Vec::with_capacity((rate * duration.as_secs_f64() * 1.1) as usize + 16);
    let mut at = 0u64;
    loop {
        at += process.next_interarrival().as_nanos() as u64;
        if at >= horizon {
            return due;
        }
        due.push(at);
    }
}

/// Open-loop requests outstanding at most. The servers refuse work beyond
/// 80 % of their queue capacity (4 096), and while the host slows this VM
/// down severalfold for a second a fixed rate is more than the service can
/// take: the generator then holds requests back instead of having them
/// refused. A held request is still timed from when it was due, so the
/// episode reads as latency and as `loadgen.lateness_*`, not as failures.
const OPEN_IN_FLIGHT_CAP: usize = 256;

/// Open loop: request `i` goes out at `schedule[i]` on connection `i % 2`,
/// whatever has or has not come back, short of [`OPEN_IN_FLIGHT_CAP`]. A
/// generator that has fallen behind by half the schedule's length stops
/// there, so that a run has an end on a host that cannot keep the rate; what
/// was not sent is not in `attempted`, and `loadgen.open_samples` shows it.
pub fn open_loop(traffic: &Arc<Traffic>, schedule: &[u64]) -> PhaseResult {
    let phase = Phase::new(traffic, schedule.len(), schedule.len(), false);
    let give_up_ns = schedule.last().copied().unwrap_or(0) / 2;
    let mut lateness_ns = Vec::with_capacity(schedule.len());
    for (index, &due_ns) in schedule.iter().enumerate() {
        let due = phase.epoch + Duration::from_nanos(due_ns);
        let late = |at: Instant| at.saturating_duration_since(due).as_nanos() as u64;
        let mut late_ns = late(wait_until(due));
        while phase.inflight.load(Ordering::SeqCst) >= OPEN_IN_FLIGHT_CAP && late_ns <= give_up_ns {
            std::thread::sleep(Duration::from_micros(100));
            late_ns = late(Instant::now());
        }
        if late_ns > give_up_ns {
            break;
        }
        lateness_ns.push(late_ns);
        phase.cursor.fetch_add(1, Ordering::Relaxed);
        phase.inflight.fetch_add(1, Ordering::SeqCst);
        let conn = index % traffic.clients.len();
        let payload = traffic.requests[index % traffic.requests.len()].clone();
        let completing = phase.clone();
        traffic.clients[conn].call_async(QUERY_METHOD, payload, move |result| {
            completing.complete(conn, index, due, result);
            completing.inflight.fetch_sub(1, Ordering::SeqCst);
        });
    }
    phase.finish(lateness_ns)
}

/// Sleeps to within ~150 µs of `due`, then yields until it passes: a pure
/// spin would take one of the host's two vCPUs away from the servers.
fn wait_until(due: Instant) -> Instant {
    const SPIN_WINDOW: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        let gap = due - now;
        if gap > SPIN_WINDOW {
            std::thread::sleep(gap - SPIN_WINDOW);
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_rpc::{RequestContext, Server, ServerConfig, Service};

    /// Echoes after 2 ms: one worker serves 500 requests a second at most.
    struct SlowEcho;

    impl Service for SlowEcho {
        fn call(&self, ctx: RequestContext) {
            std::thread::sleep(Duration::from_millis(2));
            let bytes = ctx.payload().clone();
            ctx.respond_ok(bytes);
        }
    }

    /// Ten times the rate the server can take, against an admission limit
    /// (80 % of 400) just above the cap: nothing is refused or lost, the
    /// generator runs late instead and stops once it is half a phase behind.
    #[test]
    fn overloaded_open_loop_holds_requests_back_and_ends() {
        let mut config = ServerConfig::default();
        config.workers(1).queue_capacity(400);
        let server = Server::spawn(config, Arc::new(SlowEcho)).unwrap();
        let requests: Vec<Bytes> = (0..16u8).map(|i| Bytes::from(vec![i; 32])).collect();
        let traffic = Arc::new(Traffic {
            clients: (0..CONNECTIONS)
                .map(|_| Arc::new(RpcClient::connect(server.local_addr()).unwrap()))
                .collect(),
            expected: requests.clone(),
            requests,
        });
        let schedule = poisson_schedule(5_000.0, Duration::from_millis(400), 42);
        let result = open_loop(&traffic, &schedule);
        assert_eq!((result.failed, result.wrong, result.lost), (0, 0, 0), "{:?}", result.first_bad);
        assert!(result.attempted > OPEN_IN_FLIGHT_CAP as u64, "sent {}", result.attempted);
        assert!((result.attempted as usize) < schedule.len(), "sent all {}", schedule.len());
        assert_eq!(result.samples.len() as u64, result.attempted);
        assert!(result.lateness_ns.iter().all(|&late| late <= schedule[schedule.len() - 1] / 2));
        server.shutdown();
    }

    /// Same `--seed` → identical arrival schedule; another seed differs.
    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(2_000.0, Duration::from_secs(2), 42);
        let b = poisson_schedule(2_000.0, Duration::from_secs(2), 42);
        let c = poisson_schedule(2_000.0, Duration::from_secs(2), 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(a.last().is_some_and(|&last| last < 2_000_000_000));
        let rate = a.len() as f64 / 2.0;
        assert!((1_800.0..2_200.0).contains(&rate), "mean rate {rate}");
    }
}
