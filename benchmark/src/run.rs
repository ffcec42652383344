//! One benchmark run of one workload: set-up, closed loop, open loop,
//! output check, then (traced runs) ledger, replay trace and overhead.

use crate::host::{self, CpuTimes, IdlePoll, ThreadTimes};
use crate::json::Json;
use crate::ledger::{self, RpcLedger};
use crate::loadgen::{self, PhaseResult, Probe, Traffic};
use crate::metrics::{self, Better, Metric, END_TO_END, PER_LAYER};
use crate::reference::{Reference, SPAN_LEAF_HOP, SPAN_REQUEST};
use crate::stats::{iqr_ratio, median, median_u64, percentile_sorted, quartiles};
use crate::trace::{self, SpanRecorder};
use crate::workload::{self, Generated, Live, WorkloadDef};
use crate::{alloc, workload::Stack};
use bytes::Bytes;
use musuite_core::cluster::{Cluster, QUERY_METHOD};
use musuite_rpc::{RpcClient, Server};
use musuite_telemetry::breakdown::Stage;
use musuite_telemetry::counters::{CounterSnapshot, OsOp, OsOpCounters};
use musuite_telemetry::histogram::LatencyHistogram;
use musuite_telemetry::resilience::ResilienceEvent;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Which metric sets a run reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// `--trace 0`: the end-to-end metrics; nothing of the benchmark's is
    /// recording spans.
    EndToEnd,
    /// `--trace 1`: the per-layer metrics (ledger, read-outs, traced run).
    PerLayer,
    /// No `--trace`: both sets, every metric printed by name.
    Full,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
    /// Short phases and small samples: exercises every code path quickly.
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// The measured values of one run, keyed by registry name. A metric that
/// does not apply to the workload's configuration is absent.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(metrics::find(name).is_some(), "{name} is not in the registry");
        if value.is_finite() {
            self.values.insert(name, value);
        }
    }

    fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(value) = value {
            self.set(name, value);
        }
    }

    fn count(&mut self, what: &str, phase: &PhaseResult) {
        self.attempted += phase.attempted;
        self.failed += phase.bad();
        if phase.bad() > 0 {
            self.notes.push(format!(
                "{what}: of {} requests {} failed, {} got a wrong response, {} got none; first: {}",
                phase.attempted,
                phase.failed,
                phase.wrong,
                phase.lost,
                phase.first_bad.as_deref().unwrap_or("-"),
            ));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// `setup.service_s` is the median of up to this many set-ups per run ...
const SETUPS: usize = 3;
/// ... or of fewer, once they have taken this long together (Set Algebra's
/// index build alone takes seconds).
const SETUP_BUDGET_S: f64 = 2.5;

/// A launched cluster with its clients, data and set-up timings.
pub struct Setup {
    generated: Generated,
    live: Box<dyn Live>,
    clients: Vec<Arc<RpcClient>>,
    generate_s: f64,
    launch_s: f64,
    preload_s: f64,
    preload: PhaseResult,
}

/// Everything a user pays before the first request: generate the data set
/// and request stream, launch the service, connect, preload.
fn set_up(def: &'static WorkloadDef, seed: u64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let generated = workload::generate(def, seed);
    let t1 = Instant::now();
    let live = generated.launch(def).map_err(|e| format!("launch {}: {e}", def.name))?;
    let t2 = Instant::now();
    let addr = live.cluster().midtier_addr();
    let clients = (0..loadgen::CONNECTIONS)
        .map(|_| RpcClient::connect(addr).map(Arc::new).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, String>>()?;
    let preload = if generated.preload.is_empty() {
        PhaseResult::default()
    } else {
        // Preload responses are acks, checked for failure only (no expected
        // bytes); the values they stored are checked by every later get.
        loadgen::send_all(&Arc::new(Traffic {
            clients: clients.clone(),
            requests: generated.preload.clone(),
            expected: Vec::new(),
        }))
    };
    let t3 = Instant::now();
    Ok(Setup {
        generated,
        live,
        clients,
        generate_s: (t1 - t0).as_secs_f64(),
        launch_s: (t2 - t1).as_secs_f64(),
        preload_s: (t3 - t2).as_secs_f64(),
        preload,
    })
}

/// Runs `work` on a helper thread and gives up on it after `limit`, so a
/// drain bug in the suite cannot hang a run. Returns whether it finished.
fn bounded<F: FnOnce() + Send + 'static>(limit: Duration, work: F) -> bool {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        work();
        let _ = tx.send(());
    });
    rx.recv_timeout(limit).is_ok()
}

impl Setup {
    /// Shuts clients and cluster down, waiting at most 5 s: returns whether
    /// the teardown finished.
    pub fn tear_down(self) -> bool {
        bounded(Duration::from_secs(5), move || {
            for client in &self.clients {
                client.shutdown();
            }
            self.live.cluster().shutdown();
            drop(self);
        })
    }
}

/// Point-in-time copy of the process-wide counters the read-outs diff.
struct Counters {
    os: CounterSnapshot,
    threads: ThreadTimes,
    cpu: Option<CpuTimes>,
    reactor: Option<(u64, u64, u64)>,
}

impl Counters {
    fn sample(midtier: &Server, idle_poll_tids: &[u32]) -> Counters {
        Counters {
            os: OsOpCounters::global().snapshot(),
            threads: ThreadTimes::sample(idle_poll_tids, true),
            cpu: CpuTimes::sample(),
            reactor: midtier.reactor().map(|r| {
                let stats = r.stats();
                (stats.sweeps(), stats.frames(), stats.parks())
            }),
        }
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn quantile_us(histogram: &LatencyHistogram, q: f64) -> Option<f64> {
    (!histogram.is_empty()).then(|| us(histogram.quantile(q).as_nanos() as u64))
}

fn sorted_latencies_ns(phase: &PhaseResult) -> Vec<u64> {
    let mut latencies: Vec<u64> = phase.samples.iter().map(|s| s.latency_ns).collect();
    latencies.sort_unstable();
    latencies
}

/// Per-slice completion rate (1/s) and CPU time per completion (µs) of a
/// closed loop; slices in which nothing completed are left out.
fn slice_rates(phase: &PhaseResult) -> (Vec<f64>, Vec<f64>) {
    let (mut rates, mut cpu_us) = (Vec::new(), Vec::new());
    // The last snapshot is taken after the drain, not at a slice boundary.
    let boundaries = &phase.slices[..phase.slices.len().saturating_sub(1)];
    for pair in boundaries.windows(2) {
        let completed = pair[1].completed.saturating_sub(pair[0].completed);
        let elapsed_ns = pair[1].at_ns.saturating_sub(pair[0].at_ns);
        if completed == 0 || elapsed_ns == 0 {
            continue;
        }
        rates.push(completed as f64 * 1e9 / elapsed_ns as f64);
        cpu_us.push(
            pair[1].probe.cpu_ns.saturating_sub(pair[0].probe.cpu_ns) as f64
                / 1e3
                / completed as f64,
        );
    }
    (rates, cpu_us)
}

/// Exact `q`-th percentile (µs) of the open loop's latencies within each
/// slice of due times; slices with fewer than 20 samples are left out.
fn slice_percentiles_us(phase: &PhaseResult, q: f64) -> Vec<f64> {
    let slice_ns = loadgen::SLICE.as_nanos() as u64;
    let mut by_slice: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for sample in &phase.samples {
        let due_ns = sample.done_ns.saturating_sub(sample.latency_ns);
        by_slice.entry(due_ns / slice_ns).or_default().push(sample.latency_ns);
    }
    by_slice
        .into_values()
        .filter(|latencies| latencies.len() >= 20)
        .filter_map(|mut latencies| {
            latencies.sort_unstable();
            percentile_sorted(&latencies, q).map(us)
        })
        .collect()
}

/// The quartile of the slices on the metric's good side (see
/// [`loadgen::SLICE`]); the plain median when there are too few slices.
fn good_quartile(values: &[f64], better: Better) -> Option<f64> {
    match (quartiles(values), better) {
        (Some((_, q3)), Better::Higher) => Some(q3),
        (Some((q1, _)), Better::Lower) => Some(q1),
        (None, _) => values.first().copied(),
    }
}

/// How `--seconds` is shared between the phases, and how many samples the
/// traced run takes.
struct Plan {
    warm: Duration,
    closed: Duration,
    open: Duration,
    /// Closed loop with generator-side spans on (traced runs).
    overhead: Duration,
    /// Sampled requests of the traced run, and iterations per ledger row.
    samples: usize,
}

impl Plan {
    fn new(options: &Options) -> Plan {
        let seconds = if options.smoke { options.seconds.min(4.0) } else { options.seconds };
        let secs = Duration::from_secs_f64;
        let (closed, open, overhead) = match options.mode {
            Mode::EndToEnd => (seconds / 2.0, seconds / 2.0, 0.0),
            Mode::PerLayer => (seconds * 3.0 / 8.0, seconds * 3.0 / 8.0, seconds / 4.0),
            Mode::Full => (seconds / 2.0, seconds / 2.0, seconds / 4.0),
        };
        Plan {
            warm: secs(if options.smoke { 0.2 } else { 1.0 }),
            closed: secs(closed),
            open: secs(open),
            overhead: secs(overhead),
            samples: if options.smoke { 200 } else { 2_000 },
        }
    }
}

/// Returns the report and the cluster, still running: the caller writes the
/// results out first and tears down after, so that a drain bug in the suite
/// cannot cost a run its results.
pub fn run(options: &Options) -> Result<(Report, Setup), String> {
    let def = options.workload;
    let plan = Plan::new(options);
    let mut report = Report::default();

    // Before any thread exists: one CPU for the whole process, and a thread
    // that keeps it from halting (host.rs says why).
    let cpus = host::confine_to_one_cpu(&mut report.notes);
    let idle_poll = IdlePoll::start(cpus.min(2), &mut report.notes);
    let probe = || Probe {
        cpu_ns: ThreadTimes::sample(&idle_poll.tids, false).on_cpu_ns,
        allocs: alloc::allocations(),
        alloc_bytes: alloc::allocated_bytes(),
    };

    let repeats = if options.mode == Mode::PerLayer || options.smoke { 1 } else { SETUPS };
    let (setup, service_s) = set_up_repeatedly(def, options.seed, repeats, &mut report)?;

    // Reference handlers, and from them what every request must return.
    let build = Instant::now();
    let reference: Box<dyn Reference> = setup.generated.reference();
    report.set("setup.index_build_s", build.elapsed().as_secs_f64());
    for request in &setup.generated.preload {
        reference.replay(request)?;
    }
    let expected = setup
        .generated
        .requests
        .iter()
        .map(|request| reference.replay(request))
        .collect::<Result<Vec<Bytes>, String>>()?;
    let traffic = Arc::new(Traffic {
        clients: setup.clients.clone(),
        requests: setup.generated.requests.clone(),
        expected,
    });
    let cluster = setup.live.cluster();
    let midtier = cluster.midtier();
    let servers: Vec<&Server> = std::iter::once(midtier).chain(cluster.leaf_servers()).collect();

    // Closed loop (saturation), after a warm-up the statistics forget.
    let warming = Instant::now();
    report.count(
        "closed-loop warm-up",
        &loadgen::closed_loop(&traffic, plan.warm, false, &Probe::default),
    );
    let mut warm_up_s = warming.elapsed().as_secs_f64();
    for server in &servers {
        server.stats().reset();
    }
    let before = Counters::sample(midtier, &idle_poll.tids);
    let closed = loadgen::closed_loop(&traffic, plan.closed, false, &probe);
    let os_closed = OsOpCounters::global().snapshot().since(&before.os);
    report.count("closed loop", &closed);
    let sat_qps = closed_loop_metrics(&mut report, &closed, &os_closed)?;

    // Open loop (latency at the workload's fixed rate).
    let arrival_seed = options.seed ^ 0x0A44_17A1;
    let warming = Instant::now();
    let warm = loadgen::open_loop(
        &traffic,
        &loadgen::poisson_schedule(def.open_rate, plan.warm / 2, !arrival_seed),
    );
    report.count("open-loop warm-up", &warm);
    warm_up_s += warming.elapsed().as_secs_f64();
    report.set("setup.warm_up_s", warm_up_s);
    // What passes between starting the service and its first measured
    // request. The warm-up is a fixed length of wall time, on purpose: the
    // rest is CPU-bound work whose cost follows the host's mood by +-30 %.
    report.set("setup_s", service_s + warm_up_s);
    let os_before_open = OsOpCounters::global().snapshot();
    let schedule = loadgen::poisson_schedule(def.open_rate, plan.open, arrival_seed);
    let open = loadgen::open_loop(&traffic, &schedule);
    if (open.attempted as usize) < schedule.len() {
        report.notes.push(format!(
            "open loop: the generator fell behind by half the phase and stopped after {} of {} requests",
            open.attempted,
            schedule.len()
        ));
    }
    let after = Counters::sample(midtier, &idle_poll.tids);
    report.count("open loop", &open);
    open_loop_metrics(&mut report, &open, &after.os.since(&os_before_open));
    let completions = closed.samples.len() + warm.samples.len() + open.samples.len();
    read_outs(&mut report, def, cluster, &before, &after, completions.max(1) as f64);

    let mut spans = SpanRecorder::with_capacity(0);
    if options.mode != Mode::EndToEnd {
        spans = SpanRecorder::with_capacity(plan.samples * 24);
        live_trace(&mut report, &traffic, &mut spans, plan.samples);
    }
    books(&mut report, &servers, cluster);
    if options.mode != Mode::EndToEnd {
        let rpc = ledger_rows(&mut report, def, reference.as_ref(), &traffic, plan.samples)?;
        replay_trace(&mut report, reference.as_ref(), &traffic, &mut spans, plan.samples, &rpc)?;
        // Closed loop again with generator-side spans on.
        let overhead = loadgen::closed_loop(&traffic, plan.overhead, true, &Probe::default);
        report.count("traced closed loop", &overhead);
        if let Some(traced_qps) = good_quartile(&slice_rates(&overhead).0, Better::Higher) {
            report.set("trace.overhead_ratio", traced_qps / sat_qps);
        }
        spans.append_roots(overhead.spans);
        let path = out_dir().join(format!("trace_{}.jsonl", def.name));
        spans.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.notes.push(format!("trace: {} spans in {}", spans.spans().len(), path.display()));
    }

    report.set("fail_ratio", report.failed as f64 / report.attempted.max(1) as f64);
    report.set_opt("mem.peak_rss_mb", host::peak_rss_mb());
    Ok((report, setup))
}

/// Sets up to `repeats` times, or fewer once [`SETUP_BUDGET_S`] is spent;
/// reports the medians and returns the last set-up, still running, with the
/// median set-up time.
fn set_up_repeatedly(
    def: &'static WorkloadDef,
    seed: u64,
    repeats: usize,
    report: &mut Report,
) -> Result<(Setup, f64), String> {
    let (mut totals, mut generate, mut launch, mut preload) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut setup: Option<Setup> = None;
    for round in 0..repeats {
        if let Some(previous) = setup.take() {
            if !previous.tear_down() {
                report.notes.push(format!("set-up {round}: teardown did not finish in 5 s"));
            }
        }
        let current = set_up(def, seed)?;
        report.count("preload", &current.preload);
        totals.push(current.generate_s + current.launch_s + current.preload_s);
        generate.push(current.generate_s);
        launch.push(current.launch_s);
        preload.push(current.preload_s);
        setup = Some(current);
        if totals.iter().sum::<f64>() > SETUP_BUDGET_S {
            break;
        }
    }
    report.notes.push(format!("set-ups, s: {totals:.4?}"));
    let service_s = median(&mut totals).ok_or("no set-up ran")?;
    report.set("setup.service_s", service_s);
    report.set_opt("data.generate_s", median(&mut generate));
    report.set_opt("setup.launch_s", median(&mut launch));
    report.set_opt("setup.preload_s", median(&mut preload));
    Ok((setup.ok_or("no set-up ran")?, service_s))
}

/// The OS operations of the paper's Figs. 11-14 that the suite counts.
fn os_ops(os: &CounterSnapshot) -> u64 {
    [OsOp::Futex, OsOp::SendMsg, OsOp::RecvMsg, OsOp::EpollPwait].iter().map(|&op| os.get(op)).sum()
}

/// Returns `sat_qps`, which the tracing-overhead ratio divides by.
fn closed_loop_metrics(
    report: &mut Report,
    closed: &PhaseResult,
    os: &CounterSnapshot,
) -> Result<f64, String> {
    // Counts, not times: these repeat to a percent or better whatever the
    // host does, which is why they are the gated metrics.
    let completed = closed.samples.len().max(1) as f64;
    if let (Some(first), Some(last)) = (closed.slices.first(), closed.slices.last()) {
        report
            .set("sat_allocs_per_req", (last.probe.allocs - first.probe.allocs) as f64 / completed);
        report.set(
            "sat_alloc_bytes_per_req",
            (last.probe.alloc_bytes - first.probe.alloc_bytes) as f64 / completed,
        );
    }
    report.set("sat_os_ops_per_req", os_ops(os) as f64 / completed);

    let (rates, cpu_us) = slice_rates(closed);
    let sat_qps = good_quartile(&rates, Better::Higher).ok_or("closed loop completed nothing")?;
    report.set("sat_qps", sat_qps);
    report.set_opt("sat_cpu_us_per_req", good_quartile(&cpu_us, Better::Lower));
    report.set_opt("loadgen.sat_qps_iqr_ratio", iqr_ratio(&rates));
    let sorted = sorted_latencies_ns(closed);
    report.set_opt("loadgen.sat_p50_us", percentile_sorted(&sorted, 0.50).map(us));
    report.set_opt("loadgen.sat_p99_us", percentile_sorted(&sorted, 0.99).map(us));
    Ok(sat_qps)
}

fn open_loop_metrics(report: &mut Report, open: &PhaseResult, os: &CounterSnapshot) {
    report.set("open_os_ops_per_req", os_ops(os) as f64 / open.samples.len().max(1) as f64);
    report.set_opt("lat_p50_us", good_quartile(&slice_percentiles_us(open, 0.50), Better::Lower));
    report.set_opt("lat_p90_us", good_quartile(&slice_percentiles_us(open, 0.90), Better::Lower));
    let sorted = sorted_latencies_ns(open);
    report.set("loadgen.open_samples", sorted.len() as f64);
    report.set_opt("loadgen.lat_p50_us", percentile_sorted(&sorted, 0.50).map(us));
    report.set_opt("loadgen.lat_p90_us", percentile_sorted(&sorted, 0.90).map(us));
    report.set_opt("loadgen.lat_p99_us", percentile_sorted(&sorted, 0.99).map(us));
    report.set_opt("loadgen.lat_p999_us", percentile_sorted(&sorted, 0.999).map(us));
    report.set_opt("loadgen.lat_max_us", sorted.last().copied().map(us));
    let mut lateness = open.lateness_ns.clone();
    lateness.sort_unstable();
    report.set_opt("loadgen.lateness_p50_us", percentile_sorted(&lateness, 0.50).map(us));
    report.set_opt("loadgen.lateness_p99_us", percentile_sorted(&lateness, 0.99).map(us));
}

/// The program's own counters over the closed and the open loop together,
/// per completion (`done`) where that makes sense.
fn read_outs(
    report: &mut Report,
    def: &WorkloadDef,
    cluster: &Cluster,
    before: &Counters,
    after: &Counters,
    done: f64,
) {
    let midtier = cluster.midtier();
    let breakdown = midtier.stats().breakdown();
    for (name, stage, q) in [
        ("midtier.queue_wait_p50_us", Stage::Block, 0.50),
        ("midtier.queue_wait_p99_us", Stage::Block, 0.99),
        ("midtier.wakeup_p50_us", Stage::ActiveExe, 0.50),
        ("midtier.net_rx_p50_us", Stage::NetRx, 0.50),
        ("midtier.net_tx_p50_us", Stage::NetTx, 0.50),
        ("midtier.fanout_issue_p50_us", Stage::LeafFanout, 0.50),
        ("midtier.merge_p50_us", Stage::Merge, 0.50),
    ] {
        report.set_opt(name, quantile_us(&breakdown.histogram(stage), q));
    }
    let mut leaf_service = LatencyHistogram::new();
    for leaf in cluster.leaf_servers() {
        leaf_service.merge(&leaf.stats().service_time());
    }
    report.set_opt("leaf.service_p50_us", quantile_us(&leaf_service, 0.50));
    report.set_opt("leaf.service_p99_us", quantile_us(&leaf_service, 0.99));

    let os = after.os.since(&before.os);
    for (name, op) in [
        ("os.futex_per_req", OsOp::Futex),
        ("os.sendmsg_per_req", OsOp::SendMsg),
        ("os.recvmsg_per_req", OsOp::RecvMsg),
        ("os.epoll_per_req", OsOp::EpollPwait),
        ("os.sched_yield_per_req", OsOp::SchedYield),
    ] {
        report.set(name, os.get(op) as f64 / done);
    }
    let switches = after.threads.context_switches.saturating_sub(before.threads.context_switches);
    report.set("os.ctx_switches_per_req", switches as f64 / done);
    let run_delay_ns = after.threads.run_delay_ns.saturating_sub(before.threads.run_delay_ns);
    report.set("os.run_delay_us_per_req", run_delay_ns as f64 / 1e3 / done);
    report.set_opt(
        "host.steal_ratio",
        after.cpu.zip(before.cpu).and_then(|(now, then)| now.steal_ratio_since(&then)),
    );

    let coalesce = midtier.stats().coalesce();
    if coalesce.flushes() > 0 {
        report.set(
            "rpc.coalesce_frames_per_flush",
            coalesce.frames() as f64 / coalesce.flushes() as f64,
        );
    }
    // Not applicable, rather than zero, on a stack that has them switched off.
    if def.stack == Stack::ReactorBatched && midtier.stats().batching().batches() > 0 {
        report.set("rpc.batch_mean_occupancy", midtier.stats().batching().mean_occupancy());
    }
    if let Some(((s0, f0, p0), (s1, f1, p1))) = before.reactor.zip(after.reactor) {
        if s1 > s0 {
            report.set("rpc.reactor_frames_per_sweep", (f1 - f0) as f64 / (s1 - s0) as f64);
        }
        report.set("rpc.reactor_parks_per_req", (p1 - p0) as f64 / done);
    }
}

/// The sampled requests, one at a time, through the live cluster.
fn live_trace(report: &mut Report, traffic: &Traffic, spans: &mut SpanRecorder, samples: usize) {
    let mut e2e_ns = Vec::with_capacity(samples);
    for i in 0..samples {
        let slot = i % traffic.requests.len();
        let start = Instant::now();
        let reply = traffic.clients[0].call(QUERY_METHOD, traffic.requests[slot].clone());
        let end = Instant::now();
        report.attempted += 1;
        match reply {
            Ok(bytes) if bytes == traffic.expected[slot] => {
                e2e_ns.push((end - start).as_nanos() as u64);
                spans.record_root("live.call", i as u32, start, end);
            }
            _ => report.failed += 1,
        }
    }
    report.set_opt("trace.e2e_ns", median_u64(&e2e_ns));
}

/// With the servers quiet, every request any server counted must have been
/// answered exactly once.
fn books(report: &mut Report, servers: &[&Server], cluster: &Cluster) {
    let sum = |f: fn(&Server) -> u64| servers.iter().map(|s| f(s)).sum::<u64>() as f64;
    report.set("rpc.rejected", sum(|s| s.stats().rejected()));
    report.set("rpc.shed", sum(|s| s.stats().shed_total()));
    report.set("rpc.deadline_expired", sum(|s| s.stats().deadline_expired()));
    // Refusals are answered and counted as responses too, so
    // submitted - executed - shed - expired - rejected = requests - responses.
    report
        .set("rpc.accounting_gap", sum(|s| s.stats().requests()) - sum(|s| s.stats().responses()));
    let fanout = cluster.fanout().counters();
    report.set("fanout.hedges", fanout.get(ResilienceEvent::HedgeFired) as f64);
    report.set("fanout.retries", fanout.get(ResilienceEvent::Retry) as f64);
}

/// The `rpc.*`, `codec.*` and `leaf.handle_batch8_ns` rows of the ledger.
fn ledger_rows(
    report: &mut Report,
    def: &WorkloadDef,
    reference: &dyn Reference,
    traffic: &Traffic,
    iterations: usize,
) -> Result<RpcLedger, String> {
    let requests = &traffic.requests;
    let leaf_request = reference
        .leaf_requests(&requests[0])?
        .into_iter()
        .next()
        .map(|(_, payload)| payload)
        .ok_or("first request targets no leaf")?;
    let rpc = ledger::measure(def.stack, &requests[0], &leaf_request, iterations)?;
    report.set("rpc.queue_hop_ns", rpc.queue_hop_ns);
    report.set("rpc.queue_pop_batch8_ns", rpc.queue_pop_batch8_ns);
    report.set("rpc.admit_ns", rpc.admit_ns);
    report.set("rpc.echo_rtt_ns", rpc.echo_rtt_ns);
    report.set("rpc.echo_allocs", rpc.echo_allocs);
    report.set("rpc.fanout_scatter_ns", rpc.fanout_scatter_ns);
    report.set("rpc.fanout_scatter_batch8_ns", rpc.fanout_scatter_batch8_ns);
    // The codec rows cycle through a few thousand calls; Set Algebra's 16 384
    // requests would all be replayed first for nothing.
    let codec = reference.codec_ledger(&requests[..requests.len().min(1_024)], iterations / 16)?;
    report.set("codec.req_encode_ns", codec.req_encode_ns);
    report.set("codec.req_parse_ns", codec.req_parse_ns);
    report.set("codec.resp_encode_ns", codec.resp_encode_ns);
    report.set("codec.resp_parse_ns", codec.resp_parse_ns);
    report.set("codec.batch8_encode_ns", codec.batch8_encode_ns);
    report.set("codec.batch8_decode_ns", codec.batch8_decode_ns);
    report.set("leaf.handle_batch8_ns", reference.handle_batch8_ns(requests, iterations / 4)?);
    let wire: u64 = requests
        .iter()
        .zip(&traffic.expected)
        .map(|(request, response)| reference.wire_bytes(request, response))
        .sum::<Result<u64, String>>()?;
    report.set("codec.wire_bytes_per_req", wire as f64 / requests.len() as f64);
    Ok(rpc)
}

/// Replays the sampled requests in-process with a span around each call,
/// and derives the handler rows of the ledger and the `trace.*` metrics.
fn replay_trace(
    report: &mut Report,
    reference: &dyn Reference,
    traffic: &Traffic,
    spans: &mut SpanRecorder,
    samples: usize,
    rpc: &RpcLedger,
) -> Result<(), String> {
    let replay_from = spans.spans().len();
    for i in 0..samples {
        spans.begin_request(i as u32);
        let slot = i % traffic.requests.len();
        if reference.replay_traced(&traffic.requests[slot], spans)? != traffic.expected[slot] {
            return Err(format!("replay of request {slot} does not repeat"));
        }
    }
    // Span ids are positions in the recorder; rebase them onto the replay.
    let replayed: Vec<trace::Span> = spans.spans()[replay_from..]
        .iter()
        .map(|s| trace::Span {
            id: s.id - replay_from as u32,
            parent: s.parent.saturating_sub(replay_from as u32),
            ..s.clone()
        })
        .collect();

    // Per request: plan, merge, slowest and summed leaf handle.
    let mut per_request: BTreeMap<u32, [u64; 4]> = BTreeMap::new();
    for span in &replayed {
        let row = per_request.entry(span.request).or_default();
        match span.name {
            "midtier.plan" => row[0] += span.duration_ns(),
            "midtier.merge" => row[1] += span.duration_ns(),
            "leaf.handle" => {
                row[2] = row[2].max(span.duration_ns());
                row[3] += span.duration_ns();
            }
            _ => {}
        }
    }
    for (column, name) in
        ["midtier.plan_ns", "midtier.merge_ns", "leaf.handle_ns", "leaf.handle_sum_ns"]
            .into_iter()
            .enumerate()
    {
        let values: Vec<u64> = per_request.values().map(|row| row[column]).collect();
        report.set_opt(name, median_u64(&values));
    }

    let critical = median_u64(&trace::critical_paths(&replayed, SPAN_REQUEST, SPAN_LEAF_HOP));
    report.set_opt("trace.replay_critical_ns", critical);
    if let Some((e2e, critical)) = report.get("trace.e2e_ns").zip(critical) {
        report.set("trace.rpc_residual_ns", e2e - critical);
        // ROADMAP's "rows add up" check: handlers + codec (the replay) plus
        // one front-end hop plus one leaf hop, against the live call.
        report.set(
            "trace.reconcile_ratio",
            (critical + rpc.echo_rtt_ns + rpc.fanout_scatter_ns) / e2e,
        );
    }
    for (name, times) in trace::self_times(&replayed) {
        if let Some(mid) = median_u64(&times) {
            report
                .notes
                .push(format!("self time {name}: median {mid:.0} ns over {} spans", times.len()));
        }
    }
    Ok(())
}

/// `benchmark/out/`, next to the manifest the binary was built from.
pub fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest_dir.join("out")
}

fn metric_json(metric: &Metric, value: f64) -> (String, Json) {
    (
        metric.name.to_string(),
        Json::obj([("value", Json::Num(value)), ("unit", Json::Str(metric.unit.to_string()))]),
    )
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`. Per-layer metrics that do not apply read 0 here
/// because the line must carry a number for each; the table says `n/a`.
pub fn result_line(report: &Report, mode: Mode) -> Json {
    let pick = |table: &'static [Metric]| {
        table.iter().map(|m| metric_json(m, report.get(m.name).unwrap_or(0.0)))
    };
    let metrics: Vec<(String, Json)> = match mode {
        Mode::EndToEnd => pick(END_TO_END).collect(),
        Mode::PerLayer => pick(PER_LAYER).collect(),
        Mode::Full => pick(END_TO_END).chain(pick(PER_LAYER)).collect(),
    };
    Json::obj([
        ("correct", Json::Bool(is_correct(report, mode))),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Correct means: every response matched the reference, nothing failed,
/// the servers' books balance, and every end-to-end metric was measured.
pub fn is_correct(report: &Report, mode: Mode) -> bool {
    report.failed == 0
        && report.attempted > 0
        && report.get("rpc.accounting_gap") == Some(0.0)
        && (mode == Mode::PerLayer
            || END_TO_END.iter().all(|m| report.get(m.name).is_some_and(|v| v > 0.0)))
}

/// Every metric by name with its unit; `n/a` where it does not apply.
pub fn print_table(options: &Options, report: &Report) {
    println!(
        "# {} seed {} seconds {} mode {:?}: attempted {} failed {}",
        options.workload.name,
        options.seed,
        options.seconds,
        options.mode,
        report.attempted,
        report.failed
    );
    let tables: &[(&str, &[Metric])] = match options.mode {
        Mode::EndToEnd => &[("end to end", END_TO_END)],
        Mode::PerLayer => &[("per layer", PER_LAYER)],
        Mode::Full => &[("end to end", END_TO_END), ("per layer", PER_LAYER)],
    };
    for (title, table) in tables {
        println!("## {title}");
        for metric in *table {
            match report.get(metric.name) {
                Some(value) => println!("{:<34} {:>16.4} {}", metric.name, value, metric.unit),
                None => println!("{:<34} {:>16} {}", metric.name, "n/a", metric.unit),
            }
        }
    }
    for note in &report.notes {
        println!("# {note}");
    }
}

/// The run as one object of a results file (`--out`, `suite`).
pub fn run_json(options: &Options, report: &Report) -> Json {
    let metrics = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .filter_map(|m| report.get(m.name).map(|v| metric_json(m, v)))
        .collect();
    Json::obj([
        ("workload", Json::Str(options.workload.name.to_string())),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds)),
        ("correct", Json::Bool(is_correct(report, options.mode))),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}
