//! §VII ablation — the threading-design trade-offs the paper proposes
//! studying with μSuite:
//!
//! * **block vs poll**: blocking conserves CPU but pays thread-wakeup
//!   latency; polling burns CPU to avoid it.
//! * **dispatch vs in-line**: dispatching isolates handler execution on
//!   workers but costs a thread hop; in-line avoids the hop but couples
//!   handler time to the poller.
//! * **thread-pool sizing**: too few workers queue, too many contend.
//! * **network edge**: thread-per-connection vs a fixed shared-poller
//!   pool, crossed with poller-pool size and the network-edge wait mode.
//!
//! The harness sweeps all of these on HDSearch at a fixed open-loop load
//! and reports median/tail latency, so the cross-over behaviour §VII
//! predicts (in-line wins at low load and short requests; dispatch wins
//! under load) is directly visible.
//!
//! Run: `cargo bench -p musuite-bench --bench ablation_threading`

use musuite_bench::{BenchEnv, QUERY_METHOD};
use musuite_codec::to_bytes;
use musuite_core::cluster::ClusterConfig;
use musuite_data::vectors::{VectorDataset, VectorDatasetConfig};
use musuite_hdsearch::protocol::SearchQuery;
use musuite_hdsearch::service::HdSearchService;
use musuite_loadgen::open_loop::{self, OpenLoopConfig};
use musuite_loadgen::source::CyclingSource;
use musuite_rpc::{BatchPolicy, ExecutionModel, NetworkModel, RpcClient, ServerConfig, WaitMode};
use musuite_telemetry::report::Table;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let env = BenchEnv::from_env();
    let load = env.loads.get(1).copied().unwrap_or(1_000.0);
    println!(
        "\nSec. VII ablation: mid-tier threading designs (HDSearch, {load} QPS, {}s per cell)\n",
        env.secs
    );
    let dataset = VectorDataset::generate(&VectorDatasetConfig {
        points: 5_000 * env.scale,
        dim: 64,
        ..Default::default()
    });
    let queries: Vec<Vec<u8>> = dataset
        .sample_queries(512, 0.02)
        .into_iter()
        .map(|vector| to_bytes(&SearchQuery { vector, k: 10 }))
        .collect();

    let mut table =
        Table::new(&["wait mode", "execution", "workers", "p50_us", "p99_us", "errors"]);
    for wait in [WaitMode::Block, WaitMode::Poll, WaitMode::Adaptive] {
        for execution in [ExecutionModel::Dispatch, ExecutionModel::Inline] {
            for workers in [2usize, 8] {
                if execution == ExecutionModel::Inline && workers != 2 {
                    continue; // inline mode has no worker pool to size
                }
                let mut midtier_config = ServerConfig::default();
                midtier_config.wait_mode(wait).execution_model(execution).workers(workers);
                let config = ClusterConfig::new().leaves(env.leaves).midtier_config(midtier_config);
                let service =
                    HdSearchService::launch_with(config, dataset.clone(), Default::default())
                        .expect("launch HDSearch");
                let client =
                    Arc::new(RpcClient::connect(service.addr()).expect("connect load client"));
                let mut source = CyclingSource::new(QUERY_METHOD, queries.clone());
                let report = open_loop::run(
                    OpenLoopConfig::poisson(load, env.duration(), 42),
                    client,
                    &mut source,
                );
                let us = |d: std::time::Duration| format!("{:.1}", d.as_secs_f64() * 1e6);
                table.row_owned(vec![
                    format!("{wait:?}"),
                    format!("{execution:?}"),
                    if execution == ExecutionModel::Inline {
                        "-".to_string()
                    } else {
                        workers.to_string()
                    },
                    us(report.latency.p50),
                    us(report.latency.p99),
                    report.errors.to_string(),
                ]);
                service.shutdown();
            }
        }
    }
    println!("{}", table.render());

    // Network-edge ablation: who owns the sockets. A thread per connection
    // (the baseline) against a fixed shared-poller pool of 1, 2 and 4
    // sweepers, crossed with the wait mode the network edge uses between
    // empty sweeps. Execution model is held at Dispatch so the only moving
    // part is the network layer.
    println!("\nNetwork edge: thread-per-connection vs shared poller pool\n");
    let networks = [
        NetworkModel::BlockingPerConn,
        NetworkModel::SharedPollers { pollers: 1 },
        NetworkModel::SharedPollers { pollers: 2 },
        NetworkModel::SharedPollers { pollers: 4 },
    ];
    let mut net_table =
        Table::new(&["network", "pollers", "wait mode", "p50_us", "p99_us", "errors"]);
    for network in networks {
        for wait in [WaitMode::Block, WaitMode::Poll, WaitMode::Adaptive] {
            let mut midtier_config = ServerConfig::default();
            midtier_config
                .network_model(network)
                .wait_mode(wait)
                .execution_model(ExecutionModel::Dispatch)
                .workers(4);
            let config = ClusterConfig::new().leaves(env.leaves).midtier_config(midtier_config);
            let service = HdSearchService::launch_with(config, dataset.clone(), Default::default())
                .expect("launch HDSearch");
            let client = Arc::new(RpcClient::connect(service.addr()).expect("connect load client"));
            let mut source = CyclingSource::new(QUERY_METHOD, queries.clone());
            let report = open_loop::run(
                OpenLoopConfig::poisson(load, env.duration(), 42),
                client,
                &mut source,
            );
            let us = |d: std::time::Duration| format!("{:.1}", d.as_secs_f64() * 1e6);
            let (name, pollers) = match network {
                NetworkModel::BlockingPerConn => ("per-conn", "-".to_string()),
                NetworkModel::SharedPollers { pollers } => ("shared", pollers.to_string()),
            };
            net_table.row_owned(vec![
                name.to_string(),
                pollers,
                format!("{wait:?}"),
                us(report.latency.p50),
                us(report.latency.p99),
                report.errors.to_string(),
            ]);
            service.shutdown();
        }
    }
    println!("{}", net_table.render());

    // Batching axis: what the dispatch queue hands a worker per wakeup.
    // Batch size off/8/32 crossed with the straggler window 0/50 µs
    // (zero means "drain what is ready, never wait"). Execution stays
    // Dispatch with a fixed worker pool so the only moving part is the
    // unit of work; the same seed-42 open-loop load as the tables above
    // makes the cells directly comparable.
    println!("\nBatching axis: dispatch-queue batch policy (size x straggler window)\n");
    let policies = [
        ("off", BatchPolicy::off()),
        ("8 x 0", BatchPolicy::new(8, Duration::ZERO)),
        ("8 x 50us", BatchPolicy::new(8, Duration::from_micros(50))),
        ("32 x 0", BatchPolicy::new(32, Duration::ZERO)),
        ("32 x 50us", BatchPolicy::new(32, Duration::from_micros(50))),
    ];
    let mut batch_table =
        Table::new(&["batch policy", "p50_us", "p99_us", "errors", "mid-tier batches"]);
    for (label, policy) in policies {
        let mut midtier_config = ServerConfig::default();
        midtier_config.execution_model(ExecutionModel::Dispatch).workers(4).batch_policy(policy);
        let config = ClusterConfig::new().leaves(env.leaves).midtier_config(midtier_config);
        let service = HdSearchService::launch_with(config, dataset.clone(), Default::default())
            .expect("launch HDSearch");
        let client = Arc::new(RpcClient::connect(service.addr()).expect("connect load client"));
        let mut source = CyclingSource::new(QUERY_METHOD, queries.clone());
        let report =
            open_loop::run(OpenLoopConfig::poisson(load, env.duration(), 42), client, &mut source);
        let us = |d: std::time::Duration| format!("{:.1}", d.as_secs_f64() * 1e6);
        batch_table.row_owned(vec![
            label.to_string(),
            us(report.latency.p50),
            us(report.latency.p99),
            report.errors.to_string(),
            service.cluster().midtier().stats().batching().summary_row(),
        ]);
        service.shutdown();
    }
    println!("{}", batch_table.render());
}
