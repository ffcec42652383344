//! Open-loop load generation — the paper's latency-measurement mode.
//!
//! A dispatcher thread walks a precomputed arrival schedule. At each
//! scheduled instant it issues the next request *asynchronously* and moves
//! on, so a slow response never delays subsequent arrivals (the defining
//! property of an open-loop tester, and what closed-loop testers get wrong
//! via coordinated omission). Each request's latency is measured from its
//! *scheduled* arrival time to completion; queueing caused by a stalled
//! server is therefore charged to the requests that suffered it.

use crate::arrival::ArrivalProcess;
use crate::recorder::LatencyRecorder;
use crate::source::RequestSource;
use musuite_rpc::{CallOptions, Priority, RpcClient};
use musuite_telemetry::summary::DistributionSummary;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic priority mix for generated traffic.
///
/// The class of the n-th issued request is picked by `n % 100` against the
/// configured percentages — no RNG is involved, so the same arrival seed
/// replays the exact same (class, arrival-time) sequence byte-for-byte.
/// The long-run fractions match the percentages exactly per 100 requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityMix {
    /// Percent of requests tagged [`Priority::Critical`] (0–100).
    pub critical_pct: u8,
    /// Percent of requests tagged [`Priority::Sheddable`] (0–100).
    pub sheddable_pct: u8,
}

impl PriorityMix {
    /// A mix sending everything at [`Priority::Normal`] (the default).
    pub fn all_normal() -> PriorityMix {
        PriorityMix::default()
    }

    /// A mix with `critical_pct`% Critical and `sheddable_pct`% Sheddable
    /// traffic; the remainder is Normal. Saturates at 100% combined.
    pub fn new(critical_pct: u8, sheddable_pct: u8) -> PriorityMix {
        let critical_pct = critical_pct.min(100);
        PriorityMix { critical_pct, sheddable_pct: sheddable_pct.min(100 - critical_pct) }
    }

    /// The class of the `issued`-th request (zero-based, deterministic).
    pub fn pick(&self, issued: u64) -> Priority {
        let slot = (issued % 100) as u8;
        if slot < self.critical_pct {
            Priority::Critical
        } else if slot < self.critical_pct + self.sheddable_pct {
            Priority::Sheddable
        } else {
            Priority::Normal
        }
    }
}

/// Configuration for [`run`].
#[derive(Debug)]
pub struct OpenLoopConfig {
    /// The inter-arrival process (the paper uses Poisson).
    pub arrivals: ArrivalProcess,
    /// How long to offer load.
    pub duration: Duration,
    /// Number of client connections to spread arrivals across (emulates
    /// "a large pool of clients"; 1 is fine below ~20 K QPS on loopback).
    pub connections: usize,
    /// Per-request deadline carried on the wire as a budget (`None` =
    /// no deadline, matching the seed behaviour).
    pub timeout: Option<Duration>,
    /// Priority class mix for generated traffic.
    pub mix: PriorityMix,
}

impl OpenLoopConfig {
    /// Poisson arrivals at `qps` for `duration` on one connection, with no
    /// deadline and all-Normal priority.
    pub fn poisson(qps: f64, duration: Duration, seed: u64) -> OpenLoopConfig {
        OpenLoopConfig {
            arrivals: ArrivalProcess::poisson(qps, seed),
            duration,
            connections: 1,
            timeout: None,
            mix: PriorityMix::all_normal(),
        }
    }

    /// Sets a per-request deadline, propagated hop-by-hop as a budget.
    pub fn with_timeout(mut self, timeout: Duration) -> OpenLoopConfig {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the priority class mix.
    pub fn with_mix(mut self, mix: PriorityMix) -> OpenLoopConfig {
        self.mix = mix;
        self
    }
}

/// The outcome of an open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Requests issued.
    pub issued: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed.
    pub errors: u64,
    /// Offered load in requests/second.
    pub offered_qps: f64,
    /// End-to-end latency distribution, measured from scheduled arrival.
    pub latency: DistributionSummary,
    /// Per-priority-class distributions, indexed by `Priority as usize`.
    /// Each class's summary carries its own failure breakdown, so overload
    /// runs can assert on (say) the Critical-only p99 and shed counts.
    pub class_latency: [DistributionSummary; Priority::ALL.len()],
}

impl OpenLoopReport {
    /// The latency/failure summary for one priority class.
    pub fn class(&self, priority: Priority) -> &DistributionSummary {
        &self.class_latency[priority as usize]
    }
}

/// Runs open-loop load through one client connection and blocks until
/// every issued request has completed or failed.
pub fn run<S: RequestSource>(
    config: OpenLoopConfig,
    client: Arc<RpcClient>,
    source: &mut S,
) -> OpenLoopReport {
    drive(config, vec![client], source)
}

/// Runs open-loop load spread across `config.connections` clients connected
/// to `addr`, aggregating one report.
///
/// # Errors
///
/// Returns an error if any connection fails.
pub fn run_multi<S: RequestSource>(
    config: OpenLoopConfig,
    addr: std::net::SocketAddr,
    source: &mut S,
) -> Result<OpenLoopReport, musuite_rpc::RpcError> {
    let connections = config.connections.max(1);
    let clients: Result<Vec<Arc<RpcClient>>, _> =
        (0..connections).map(|_| RpcClient::connect(addr).map(Arc::new)).collect();
    Ok(drive(config, clients?, source))
}

fn drive<S: RequestSource>(
    config: OpenLoopConfig,
    clients: Vec<Arc<RpcClient>>,
    source: &mut S,
) -> OpenLoopReport {
    let recorder = LatencyRecorder::new();
    let mut arrivals = config.arrivals;
    let offered_qps = arrivals.mean_rate();
    let start = Instant::now();
    let mut next_at = Duration::ZERO;
    let mut issued = 0u64;
    while next_at < config.duration {
        // Hybrid sleep: coarse sleep until close to the deadline, then spin
        // for the final stretch so arrival times stay accurate at 10 K QPS.
        loop {
            let now = start.elapsed();
            if now >= next_at {
                break;
            }
            let remaining = next_at - now;
            if remaining > Duration::from_micros(200) {
                std::thread::sleep(remaining - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
        let (method, payload) = source.next_request();
        let scheduled = start + next_at;
        let priority = config.mix.pick(issued);
        let recorder_handle = recorder.clone();
        let client = &clients[(issued as usize) % clients.len()];
        let opts = CallOptions { timeout: config.timeout, priority };
        client.call_async_opts(method, payload, opts, move |result| match result {
            Ok(_) => recorder_handle.record_success_for(priority, scheduled.elapsed()),
            Err(e) => recorder_handle.record_failure_for(priority, e.failure_kind()),
        });
        issued += 1;
        next_at += arrivals.next_interarrival();
    }
    // Drain stragglers, bounded so a dead server cannot hang the harness.
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while recorder.successes() + recorder.errors() < issued && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    OpenLoopReport {
        issued,
        completed: recorder.successes(),
        errors: recorder.errors(),
        offered_qps,
        latency: recorder.summary(),
        class_latency: [
            recorder.class_summary(Priority::Critical),
            recorder.class_summary(Priority::Normal),
            recorder.class_summary(Priority::Sheddable),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_rpc::{RequestContext, Server, ServerConfig, Service};

    struct Echo;
    impl Service for Echo {
        fn call(&self, ctx: RequestContext) {
            let bytes = ctx.payload().to_vec();
            ctx.respond_ok(bytes);
        }
    }

    #[test]
    fn open_loop_issues_at_configured_rate() {
        let server = Server::spawn(ServerConfig::default(), Arc::new(Echo)).unwrap();
        let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
        let config = OpenLoopConfig::poisson(2000.0, Duration::from_millis(500), 1);
        let mut source = || (1u32, vec![0u8; 32]);
        let report = run(config, client, &mut source);
        // ~1000 expected; Poisson variance allows a generous band.
        assert!(report.issued > 700 && report.issued < 1300, "issued {}", report.issued);
        assert_eq!(report.completed + report.errors, report.issued);
        assert_eq!(report.errors, 0);
        assert!(report.latency.p50 > Duration::ZERO);
    }

    #[test]
    fn open_loop_latency_includes_queueing_from_scheduled_time() {
        // A deliberately slow single-worker server at an offered rate it
        // cannot sustain: open-loop latencies must grow well beyond the
        // service time because they are charged from scheduled arrival.
        struct Slow;
        impl Service for Slow {
            fn call(&self, ctx: RequestContext) {
                std::thread::sleep(Duration::from_millis(5));
                ctx.respond_ok(Vec::new());
            }
        }
        let mut server_config = ServerConfig::default();
        server_config.workers(1);
        let server = Server::spawn(server_config, Arc::new(Slow)).unwrap();
        let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
        // Offered 1000 QPS vs capacity 200 QPS.
        let config = OpenLoopConfig::poisson(1000.0, Duration::from_millis(300), 2);
        let mut source = || (1u32, Vec::new());
        let report = run(config, client, &mut source);
        assert!(
            report.latency.p99 > Duration::from_millis(50),
            "queueing must inflate tail: {:?}",
            report.latency.p99
        );
    }

    #[test]
    fn priority_mix_is_deterministic_and_exact_per_hundred() {
        let mix = PriorityMix::new(20, 30);
        let mut counts = [0u64; 3];
        for issued in 0..1000u64 {
            counts[mix.pick(issued) as usize] += 1;
            // Same index, same class — always.
            assert_eq!(mix.pick(issued), mix.pick(issued));
        }
        assert_eq!(counts[Priority::Critical as usize], 200);
        assert_eq!(counts[Priority::Normal as usize], 500);
        assert_eq!(counts[Priority::Sheddable as usize], 300);
        // Percentages saturate rather than overlap.
        let clamped = PriorityMix::new(80, 60);
        assert_eq!(clamped.sheddable_pct, 20);
    }

    #[test]
    fn mixed_priorities_are_recorded_per_class() {
        let server = Server::spawn(ServerConfig::default(), Arc::new(Echo)).unwrap();
        let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
        let config = OpenLoopConfig::poisson(2000.0, Duration::from_millis(300), 5)
            .with_mix(PriorityMix::new(25, 25))
            .with_timeout(Duration::from_secs(2));
        let mut source = || (1u32, vec![7u8; 16]);
        let report = run(config, client, &mut source);
        assert_eq!(report.errors, 0);
        let per_class: u64 = Priority::ALL.iter().map(|p| report.class(*p).count).sum();
        assert_eq!(per_class, report.completed, "every success is attributed to one class");
        for p in Priority::ALL {
            assert!(report.class(p).count > 0, "{p} class saw no traffic");
        }
    }

    #[test]
    fn run_multi_spreads_connections() {
        let server = Server::spawn(ServerConfig::default(), Arc::new(Echo)).unwrap();
        let config = OpenLoopConfig {
            arrivals: ArrivalProcess::poisson(1000.0, 3),
            duration: Duration::from_millis(300),
            connections: 4,
            timeout: None,
            mix: PriorityMix::all_normal(),
        };
        let mut source = || (1u32, vec![1u8]);
        let report = run_multi(config, server.local_addr(), &mut source).unwrap();
        assert!(report.completed > 0);
        assert_eq!(report.errors, 0);
    }
}
