//! The metric registry: every metric the benchmark prints, by name, with
//! its unit, direction and (end-to-end only) regression bound.
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`manifest` subcommand) and a test keeps the two in step.

use crate::json::Json;
use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Where the number comes from.
    pub source: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    source: &'static str,
) -> Metric {
    Metric { name, unit, better, bound: Some(bound), source }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
) -> Metric {
    Metric { name, unit, better, bound: None, source }
}

use Better::{Higher, Lower};

/// The gated metrics. On the shared VM this benchmark runs on, no
/// time-based metric repeats to better than 10-40 % between identical runs
/// (README.md has the runs), and ISSUE.md's rule is that a metric which
/// cannot hold its bound is reported per layer, not kept as a noisy gate.
/// What does repeat, to a percent or better, is what a request *costs* in
/// counted operations: the paper's own Figs. 11-14 (OS operations per
/// query) and allocator traffic. Set-up time is gated by contract.
pub const END_TO_END: &[Metric] = &[
    e2e("sat_allocs_per_req", "count", Lower, 0.10, "closed loop: allocator calls of the whole process (generator, mid-tier, leaves) / completions"),
    e2e("sat_alloc_bytes_per_req", "B", Lower, 0.15, "closed loop: bytes requested from the allocator / completions"),
    e2e("sat_os_ops_per_req", "count", Lower, 0.10, "closed loop: OsOpCounters::global() futex + sendmsg + recvmsg + epoll_pwait / completions (paper Figs. 11-14)"),
    e2e("setup_s", "s", Lower, 0.25, "from starting the service to its first measured request: setup.service_s + setup.warm_up_s"),
];

pub const PER_LAYER: &[Metric] = &[
    // The paper's end-to-end exhibits (Fig. 9, Fig. 10): reported by every
    // traced run, ungated because the host does not let them repeat. Each is
    // computed per 250 ms slice and reported as the slices' quartile on the
    // good side (`loadgen::SLICE` says why).
    layer("sat_qps", "1/s", Higher, "closed loop, 32 in flight over 2 connections: completions per second, upper quartile of the 250 ms slices"),
    layer("sat_cpu_us_per_req", "us", Lower, "closed loop: process CPU time (generator included, idle-poll thread excluded) per completion, lower quartile of the slices"),
    layer("lat_p50_us", "us", Lower, "open loop at the workload's fixed Poisson rate, timed from due time: exact median per slice, lower quartile of the slices"),
    layer("lat_p90_us", "us", Lower, "as lat_p50_us with the exact 90th percentile per slice"),
    // Ledger: the workload's own requests through public functions,
    // single-threaded, median of >= 2 000 iterations.
    layer("codec.req_encode_ns", "ns", Lower, "typed request -> payload -> frame bytes"),
    layer("codec.req_parse_ns", "ns", Lower, "frame bytes -> checksum -> typed request"),
    layer("codec.resp_encode_ns", "ns", Lower, "typed response -> payload -> frame bytes"),
    layer("codec.resp_parse_ns", "ns", Lower, "frame bytes -> checksum -> typed response"),
    layer("codec.batch8_encode_ns", "ns", Lower, "8-request batch envelope -> frame bytes, per member"),
    layer("codec.batch8_decode_ns", "ns", Lower, "frame bytes -> 8 batch entries, per member"),
    layer("codec.wire_bytes_per_req", "B", Lower, "all frames of one request on both hops, headers included (exact)"),
    layer("rpc.queue_hop_ns", "ns", Lower, "DispatchQueue push -> pop across two threads, workload's wait mode"),
    layer("rpc.queue_pop_batch8_ns", "ns", Lower, "8 pushes -> one pop_batch(8, 50 us), per member"),
    layer("rpc.admit_ns", "ns", Lower, "AdmissionControl::try_admit + permit drop"),
    layer("rpc.echo_rtt_ns", "ns", Lower, "serial RpcClient::call to a 1-worker echo Server, request-sized payload"),
    layer("rpc.echo_allocs", "count", Lower, "allocator calls per echo round trip"),
    layer("rpc.fanout_scatter_ns", "ns", Lower, "FanoutGroup::scatter_wait over 2 echo leaves, leaf-request-sized payload"),
    layer("rpc.fanout_scatter_batch8_ns", "ns", Lower, "8 concurrent scatters through with_batching(8, 50 us), per scatter"),
    layer("midtier.plan_ns", "ns", Lower, "MidTierHandler::plan, replay span"),
    layer("leaf.handle_ns", "ns", Lower, "LeafHandler::handle, slowest targeted leaf, replay span"),
    layer("leaf.handle_sum_ns", "ns", Lower, "LeafHandler::handle summed over targeted leaves"),
    layer("leaf.handle_batch8_ns", "ns", Lower, "LeafHandler::handle_batch of 8, per member"),
    layer("midtier.merge_ns", "ns", Lower, "MidTierHandler::merge, replay span"),
    // Read-outs of the program's own counters over the closed + open loop.
    layer("midtier.queue_wait_p50_us", "us", Lower, "Stage::Block histogram, mid-tier"),
    layer("midtier.queue_wait_p99_us", "us", Lower, "Stage::Block histogram, mid-tier"),
    layer("midtier.wakeup_p50_us", "us", Lower, "Stage::ActiveExe histogram, mid-tier"),
    layer("midtier.net_rx_p50_us", "us", Lower, "Stage::NetRx histogram, mid-tier"),
    layer("midtier.net_tx_p50_us", "us", Lower, "Stage::NetTx histogram, mid-tier"),
    layer("midtier.fanout_issue_p50_us", "us", Lower, "Stage::LeafFanout histogram, mid-tier"),
    layer("midtier.merge_p50_us", "us", Lower, "Stage::Merge histogram, mid-tier"),
    layer("leaf.service_p50_us", "us", Lower, "ServerStats::service_time, leaves merged"),
    layer("leaf.service_p99_us", "us", Lower, "ServerStats::service_time, leaves merged"),
    layer("os.futex_per_req", "count", Lower, "OsOpCounters::global() Futex / completions"),
    layer("os.sendmsg_per_req", "count", Lower, "OsOpCounters::global() SendMsg / completions"),
    layer("os.recvmsg_per_req", "count", Lower, "OsOpCounters::global() RecvMsg / completions"),
    layer("os.epoll_per_req", "count", Lower, "OsOpCounters::global() EpollPwait / completions"),
    layer("os.sched_yield_per_req", "count", Lower, "OsOpCounters::global() SchedYield / completions"),
    layer("open_os_ops_per_req", "count", Lower, "open loop only: futex + sendmsg + recvmsg + epoll_pwait / completions; servers mostly idle, so it turns on whether a thread was still spinning or already parked (0.10 spread on recommend_batched: not a gate)"),
    layer("os.ctx_switches_per_req", "count", Lower, "/proc/self/task/*/status context switches (idle-poll thread excluded) / completions"),
    layer("os.run_delay_us_per_req", "us", Lower, "/proc/self/task/*/schedstat run-queue delay (idle-poll thread excluded) / completions"),
    layer("rpc.coalesce_frames_per_flush", "ratio", Higher, "mid-tier CoalesceStats frames / flushes"),
    layer("rpc.batch_mean_occupancy", "count", Higher, "mid-tier BatchStats mean occupancy (batching stacks only)"),
    layer("rpc.reactor_frames_per_sweep", "ratio", Higher, "mid-tier ReactorStats (shared-poller stacks only)"),
    layer("rpc.reactor_parks_per_req", "count", Lower, "mid-tier ReactorStats parks / completions (shared-poller stacks only)"),
    layer("rpc.rejected", "count", Lower, "ServerStats::rejected, all servers"),
    layer("rpc.shed", "count", Lower, "ServerStats::shed_total, all servers"),
    layer("rpc.deadline_expired", "count", Lower, "ServerStats::deadline_expired, all servers"),
    layer("rpc.accounting_gap", "count", Lower, "submitted - executed - shed - expired - rejected, all servers; must be 0"),
    layer("fanout.hedges", "count", Lower, "ResilienceEvent::HedgeFired, mid-tier fan-out"),
    layer("fanout.retries", "count", Lower, "ResilienceEvent::Retry, mid-tier fan-out"),
    layer("fail_ratio", "ratio", Lower, "(failed + refused + timed-out + wrong) / attempted, all phases; must be 0"),
    // Generator and host.
    layer("loadgen.lateness_p50_us", "us", Lower, "open loop: send time - due time"),
    layer("loadgen.lateness_p99_us", "us", Lower, "open loop: send time - due time"),
    layer("loadgen.open_samples", "count", Higher, "open-loop latency samples behind lat_p50_us / lat_p90_us and loadgen.lat_*"),
    layer("loadgen.lat_p50_us", "us", Lower, "open loop, exact median over all samples (not per slice)"),
    layer("loadgen.lat_p90_us", "us", Lower, "open loop, exact 90th percentile over all samples (not per slice)"),
    layer("loadgen.lat_p99_us", "us", Lower, "open loop, exact; host steal makes it too noisy to gate on"),
    layer("loadgen.lat_p999_us", "us", Lower, "open loop, exact"),
    layer("loadgen.lat_max_us", "us", Lower, "open loop"),
    layer("loadgen.sat_p50_us", "us", Lower, "closed loop: send -> completion, exact"),
    layer("loadgen.sat_p99_us", "us", Lower, "closed loop: send -> completion, exact"),
    layer("loadgen.sat_qps_iqr_ratio", "ratio", Lower, "IQR / median of the closed loop's per-slice rates: how unsteady the host was"),
    layer("host.steal_ratio", "ratio", Lower, "/proc/stat steal share over the measured phases"),
    layer("mem.peak_rss_mb", "MiB", Lower, "VmHWM at the end of the run"),
    layer("setup.service_s", "s", Lower, "part of setup_s: data generation + the service's launch_with (index build) + connect + preload; median of up to 3 set-ups"),
    layer("setup.warm_up_s", "s", Lower, "part of setup_s: 1 s of closed-loop and 0.5 s of open-loop warm-up traffic with their drains, a fixed length of wall time"),
    layer("data.generate_s", "s", Lower, "part of setup.service_s: data set + request stream generation"),
    layer("setup.launch_s", "s", Lower, "part of setup.service_s: the service's launch_with, index build included"),
    layer("setup.preload_s", "s", Lower, "part of setup.service_s: connect two clients, preload (Router's key load)"),
    layer("setup.index_build_s", "s", Lower, "reference handlers built directly (not part of setup_s)"),
    // Traced run.
    layer("trace.e2e_ns", "ns", Lower, "sampled requests one at a time through the live cluster, median"),
    layer("trace.replay_critical_ns", "ns", Lower, "in-process replay: root span minus all but the slowest leaf hop, median"),
    layer("trace.rpc_residual_ns", "ns", Lower, "trace.e2e_ns - replay critical path: the two-hop network/queue/wakeup tax"),
    layer("trace.reconcile_ratio", "ratio", Higher, "(replay critical path + rpc.echo_rtt_ns + rpc.fanout_scatter_ns) / trace.e2e_ns"),
    layer("trace.overhead_ratio", "ratio", Higher, "closed-loop rate with generator spans on / sat_qps"),
];

/// The metric table of README.md, as markdown.
pub fn markdown_table() -> String {
    let mut out =
        String::from("| metric | unit | better | bound | source |\n|---|---|---|---|---|\n");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let bound = m.bound.map_or("—".to_string(), |b| format!("{b:.2}"));
        out += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            m.source
        );
    }
    out
}

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `BENCHMARK.json`, generated so that it cannot drift from the tables.
pub fn manifest(run_seconds: u32) -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .iter()
                .map(|s| text(s))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(f64::from(run_seconds))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Json::Num(m.bound.expect("end-to-end metrics are bounded"))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut seen = HashSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
            assert!(
                metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{} unit {}",
                metric.name,
                metric.unit
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for workload in &WORKLOADS {
            assert!(name_ok(workload.name) && seen.insert(workload.name));
        }
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let run_seconds = committed.get("run_seconds").and_then(Json::as_f64).unwrap() as u32;
        assert_eq!(committed, manifest(run_seconds), "regenerate with the `manifest` subcommand");
        assert!(std::fs::metadata(path).unwrap().len() <= 64 * 1024);
    }
}
