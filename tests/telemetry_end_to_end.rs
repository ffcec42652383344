//! Telemetry integration: the characterization signals the bench harness
//! relies on must populate under real traffic.

use musuite::data::vectors::{VectorDataset, VectorDatasetConfig};
use musuite::hdsearch::protocol::SearchQuery;
use musuite::hdsearch::service::HdSearchService;
use musuite::telemetry::breakdown::Stage;
use musuite::telemetry::counters::{OsOp, OsOpCounters};
use musuite::telemetry::procstat::{ContextSwitches, SchedStat};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// `ContextSwitches` sums over the threads alive when it samples, so a
/// cluster that another test shuts down between two samples takes its share
/// out of the difference: the tests here take turns.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn run_traffic(queries: usize) -> HdSearchService {
    let dataset = VectorDataset::generate(&VectorDatasetConfig {
        points: 1_000,
        dim: 16,
        ..Default::default()
    });
    let query_vectors = dataset.sample_queries(queries, 0.02);
    let service = HdSearchService::launch(dataset, 2, Default::default()).unwrap();
    let client = service.client().unwrap();
    for vector in &query_vectors {
        client.search(vector, 5).unwrap();
    }
    service
}

#[test]
fn futex_class_ops_dominate_and_scale_with_traffic() {
    let _turn = turn();
    let counters = OsOpCounters::global();
    let before = counters.snapshot();
    let service = run_traffic(200);
    let delta = counters.snapshot().since(&before);
    // The paper's headline syscall observation: futex is invoked heavily
    // by the blocking thread-pool design.
    assert!(delta.get(OsOp::Futex) > 200, "futex ops {}", delta.get(OsOp::Futex));
    assert!(delta.get(OsOp::SendMsg) >= 400, "sendmsg {}", delta.get(OsOp::SendMsg));
    assert!(delta.get(OsOp::RecvMsg) >= 400, "recvmsg {}", delta.get(OsOp::RecvMsg));
    assert!(delta.get(OsOp::EpollPwait) >= 400);
    service.shutdown();
}

#[test]
fn breakdown_stages_cover_request_lifecycle() {
    let _turn = turn();
    let service = run_traffic(100);
    let breakdown = service.cluster().midtier().stats().breakdown();
    for stage in [Stage::NetRx, Stage::Block, Stage::Net, Stage::LeafFanout] {
        let histogram = breakdown.histogram(stage);
        assert!(histogram.count() >= 99, "stage {stage} recorded {} samples", histogram.count());
        assert!(histogram.max() > Duration::ZERO);
    }
    // Dispatch/wakeup latencies are microsecond-scale, not millisecond.
    let block = breakdown.histogram(Stage::Block);
    assert!(block.quantile(0.5) < Duration::from_millis(50));
    service.shutdown();
}

#[test]
fn leaf_time_is_excluded_from_net_stage() {
    let _turn = turn();
    let service = run_traffic(100);
    let breakdown = service.cluster().midtier().stats().breakdown();
    let net = breakdown.histogram(Stage::Net);
    let service_time = service.cluster().midtier().stats().service_time();
    // Net (mid-tier-only time) must be no larger than total service time.
    assert!(net.quantile(0.5) <= service_time.quantile(0.5) + Duration::from_micros(1));
    service.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn context_switches_and_runqueue_delay_advance_under_load() {
    let _turn = turn();
    let cs_before = ContextSwitches::sample_or_default();
    let ss_before = SchedStat::sample_or_default();
    let service = run_traffic(300);
    let cs_delta = ContextSwitches::sample_or_default() - cs_before;
    let ss_after = SchedStat::sample_or_default();
    // Blocking hand-offs force voluntary context switches — hundreds for
    // 300 three-tier queries.
    assert!(cs_delta.voluntary > 300, "voluntary switches {}", cs_delta.voluntary);
    let ss_delta = ss_after.since(&ss_before);
    assert!(ss_delta.timeslices > 0, "threads must have been scheduled");
    service.shutdown();
}

#[test]
fn contention_events_accumulate_under_parallel_load() {
    let _turn = turn();
    use musuite::telemetry::sync;
    let dataset = VectorDataset::generate(&VectorDatasetConfig {
        points: 1_000,
        dim: 16,
        ..Default::default()
    });
    let queries = dataset.sample_queries(64, 0.02);
    let service = HdSearchService::launch(dataset, 2, Default::default()).unwrap();
    let before = sync::contention_events();
    // Contention is probabilistic: the write path holds its locks only
    // long enough to append to a batch (the kernel write happens outside
    // the lock), so one short burst may slip through uncontended. Drive
    // repeated bursts until the counters move; only a genuinely
    // contention-free stack fails the round budget.
    let mut rounds = 0;
    while sync::contention_events() == before {
        rounds += 1;
        assert!(rounds <= 10, "8 parallel clients hammering shared queues must contend");
        let mut handles = Vec::new();
        for _ in 0..8 {
            let addr = service.addr();
            let queries = queries.clone();
            handles.push(std::thread::spawn(move || {
                let client = musuite::rpc::RpcClient::connect(addr).unwrap();
                for q in &queries {
                    let payload =
                        musuite::codec::to_bytes(&SearchQuery { vector: q.clone(), k: 5 });
                    client.call(1, payload).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
    assert!(sync::contention_events() > before);
    service.shutdown();
}
