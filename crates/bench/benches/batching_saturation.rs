//! Fig. 9 analog for the batching axis — saturation throughput of the
//! RPC substrate with batches vs single requests as the unit of work.
//!
//! Closed-loop clients drive an echo server to saturation three ways:
//! unbatched (the pre-batching request path), and with `BatchPolicy`
//! {max_size 8, 50 µs} and {max_size 32, 50 µs}. Batched arms issue each
//! window's `call_async`s inside one `burst`, so they leave in one socket
//! write, and the server drains the dispatch queue batch-at-a-time
//! (`pop_batch`), so the whole wire→queue→worker path is exercised at
//! batch granularity. The acceptance bar for the batching tentpole is
//! the batched arms sustaining ≥ 1.5x the unbatched saturation
//! throughput, at a recorded (bounded) p99 cost, with the server's
//! batch-occupancy and flush-reason counters printed alongside.
//!
//! Run: `cargo bench -p musuite-bench --bench batching_saturation`

use musuite_bench::BenchEnv;
use musuite_rpc::{
    burst, BatchPolicy, ExecutionModel, RequestContext, RpcClient, Server, ServerConfig, Service,
};
use musuite_telemetry::report::Table;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

struct Echo;
impl Service for Echo {
    fn call(&self, ctx: RequestContext) {
        let bytes = ctx.payload().to_vec();
        ctx.respond_ok(bytes);
    }
}

struct ArmReport {
    qps: f64,
    p50: Duration,
    p99: Duration,
    batching: String,
}

/// One closed-loop measurement: `conns` connections, each issuing
/// windows of `batch` echo requests back-to-back for `duration`.
/// Returns (completed requests per second, window p50, window p99) —
/// a window's latency upper-bounds every member's.
fn run_at(
    addr: std::net::SocketAddr,
    conns: usize,
    batch: usize,
    duration: Duration,
) -> (f64, Duration, Duration) {
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for _ in 0..conns {
        let stop = stop.clone();
        let completed = completed.clone();
        let latencies = latencies.clone();
        handles.push(std::thread::spawn(move || {
            let client = RpcClient::connect(addr).expect("connect load client");
            let payload = vec![0u8; 64];
            let mut local = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let start = Instant::now();
                if batch <= 1 {
                    client.call(1, payload.clone()).expect("echo");
                } else {
                    let (tx, rx) = mpsc::channel();
                    burst(|| {
                        for _ in 0..batch {
                            let tx = tx.clone();
                            client.call_async(1, payload.clone(), move |r| {
                                tx.send(r.is_ok()).ok();
                            });
                        }
                    });
                    for _ in 0..batch {
                        assert!(rx.recv().expect("batch member resolves"), "member failed");
                    }
                }
                local.push(start.elapsed());
                completed.fetch_add(batch as u64, Ordering::Relaxed);
            }
            latencies.lock().expect("latency sink").extend(local);
        }));
    }
    let started = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let elapsed = started.elapsed();
    for h in handles {
        h.join().expect("load thread");
    }
    let mut lat = latencies.lock().expect("latency sink").clone();
    lat.sort_unstable();
    let quantile = |q: f64| lat[((lat.len() as f64 * q) as usize).min(lat.len() - 1)];
    let qps = completed.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64();
    (qps, quantile(0.50), quantile(0.99))
}

/// Ramps concurrency until throughput flattens (the Fig. 9 protocol)
/// and returns the best point plus the server's batch counters.
fn saturate(policy: BatchPolicy, batch: usize, duration: Duration) -> ArmReport {
    let mut config = ServerConfig::default();
    config.execution_model(ExecutionModel::Dispatch).workers(4).batch_policy(policy);
    let server = Server::spawn(config, Arc::new(Echo)).expect("spawn echo server");
    let mut best =
        ArmReport { qps: 0.0, p50: Duration::ZERO, p99: Duration::ZERO, batching: String::new() };
    let mut conns = 4usize;
    while conns <= 64 {
        let (qps, p50, p99) = run_at(server.local_addr(), conns, batch, duration);
        if qps <= best.qps * 1.05 {
            break; // the knee is behind us
        }
        if qps > best.qps {
            best = ArmReport { qps, p50, p99, batching: String::new() };
        }
        conns *= 2;
    }
    best.batching = server.stats().batching().summary_row();
    server.shutdown();
    best
}

fn main() {
    let env = BenchEnv::from_env();
    let duration = env.duration();
    println!(
        "\nBatching axis: echo saturation, batched vs single-request unit of work \
         ({}s per ramp step)\n",
        env.secs
    );
    let arms = [
        ("off", BatchPolicy::off(), 1usize),
        ("8 x 50us", BatchPolicy::new(8, Duration::from_micros(50)), 8),
        ("32 x 50us", BatchPolicy::new(32, Duration::from_micros(50)), 32),
    ];
    let mut table = Table::new(&[
        "batch policy",
        "saturation QPS",
        "vs off",
        "window p50_us",
        "window p99_us",
        "server batches",
    ]);
    let mut baseline = 0.0f64;
    for (label, policy, batch) in arms {
        let report = saturate(policy, batch, duration);
        if batch == 1 {
            baseline = report.qps;
        }
        let us = |d: Duration| format!("{:.1}", d.as_secs_f64() * 1e6);
        let speedup =
            if baseline > 0.0 { format!("{:.2}x", report.qps / baseline) } else { "-".into() };
        println!(
            "{label}: {:.0} QPS ({speedup}), p99 {} us, {}",
            report.qps,
            us(report.p99),
            report.batching
        );
        table.row_owned(vec![
            label.to_string(),
            format!("{:.0}", report.qps),
            speedup,
            us(report.p50),
            us(report.p99),
            report.batching.clone(),
        ]);
    }
    println!("\n{}", table.render());
}
