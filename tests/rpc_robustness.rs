//! Fault-injection and robustness tests for the RPC substrate.

use musuite::codec::{batch_frame, BatchEntry};
use musuite::rpc::{
    CallOptions, ExecutionModel, Frame, NetworkModel, Reactor, ReactorConfig, RecvBuf,
    RequestContext, RpcClient, RpcError, Server, ServerConfig, Service, Status, WaitMode,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

struct Echo;
impl Service for Echo {
    fn call(&self, ctx: RequestContext) {
        let bytes = ctx.payload().to_vec();
        ctx.respond_ok(bytes);
    }
}

fn echo_server(config: ServerConfig) -> Server {
    Server::spawn(config, Arc::new(Echo)).unwrap()
}

#[test]
fn all_execution_model_combinations_roundtrip() {
    for wait in [WaitMode::Block, WaitMode::Poll, WaitMode::Adaptive] {
        for model in [ExecutionModel::Dispatch, ExecutionModel::Inline] {
            let mut config = ServerConfig::default();
            config.wait_mode(wait).execution_model(model).workers(2);
            let server = echo_server(config);
            let client = RpcClient::connect(server.local_addr()).unwrap();
            for i in 0..20u32 {
                let payload = i.to_le_bytes().to_vec();
                assert_eq!(client.call(1, payload.clone()).unwrap(), payload, "{wait:?}/{model:?}");
            }
        }
    }
}

#[test]
fn oversized_frame_is_rejected_cleanly() {
    let server = echo_server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // Hand-craft a header declaring a payload beyond MAX_FRAME_LEN.
    let mut bytes = vec![0xB5, 0x53];
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
    bytes.extend_from_slice(&[0u8; 25]); // kind + ids + checksum filler
    raw.write_all(&bytes).unwrap();
    // The server drops that connection; the listener must stay healthy.
    std::thread::sleep(Duration::from_millis(50));
    let client = RpcClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.call(1, b"still alive".to_vec()).unwrap(), b"still alive");
}

/// Kind 3 is reserved: a well-formed frame of it (the shape the retired
/// client envelope had) is ignored, counted as nothing, and the request
/// behind it on the same connection is answered.
#[test]
fn a_reserved_kind_frame_is_ignored_and_the_connection_carries_on() {
    for network in [NetworkModel::BlockingPerConn, NetworkModel::SharedPollers { pollers: 1 }] {
        let mut config = ServerConfig::default();
        config.network_model(network);
        let server = echo_server(config);
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        let reserved = batch_frame(&[
            BatchEntry::new(1, 1, b"one".to_vec()),
            BatchEntry::new(2, 1, b"two".to_vec()),
        ]);
        raw.write_all(&reserved.to_bytes()).unwrap();
        raw.write_all(&Frame::request(9, 1, b"after".to_vec()).to_bytes()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let (reply, _) = RecvBuf::default().poll_frame(&mut raw).unwrap().expect("a reply");
        assert_eq!(
            (reply.header.request_id, &reply.payload[..]),
            (9, &b"after"[..]),
            "{network:?}"
        );
        assert_eq!(server.stats().requests(), 1, "{network:?}");
        assert_eq!(server.stats().accounting_gap(), 0, "{network:?}");
    }
}

#[test]
fn frames_cut_off_by_the_sweep_budget_are_neither_lost_nor_taken_for_idleness() {
    // Eight requests arrive in one segment, so one `read` buffers them all;
    // the sweeper may hand out one per sweep, and the in-line handler makes
    // every sweep outlast the idle timeout. The seven frames waiting in the
    // connection's receive buffer are traffic: it must not be reaped (or the
    // sweeper parked) while they wait.
    struct Slow;
    impl Service for Slow {
        fn call(&self, ctx: RequestContext) {
            std::thread::sleep(Duration::from_millis(8));
            let bytes = ctx.payload().clone();
            ctx.respond_ok(bytes);
        }
    }
    let mut config = ServerConfig::default();
    config
        .network_model(NetworkModel::SharedPollers { pollers: 1 })
        .execution_model(ExecutionModel::Inline)
        .sweep_budget(1)
        .idle_timeout(Duration::from_millis(4));
    let server = Server::spawn(config, Arc::new(Slow)).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let burst: Vec<u8> =
        (0..8u64).flat_map(|id| Frame::request(id, 1, vec![id as u8; 40]).to_bytes()).collect();
    raw.write_all(&burst).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut responses = RecvBuf::default();
    for id in 0..8u64 {
        let (frame, _) = responses.poll_frame(&mut raw).unwrap().expect("a response per request");
        assert_eq!((frame.header.request_id, &frame.payload[..]), (id, &[id as u8; 40][..]));
    }
    assert_eq!(server.stats().responses(), 8);
}

#[test]
fn queue_overflow_sheds_with_unavailable() {
    struct Slow;
    impl Service for Slow {
        fn call(&self, ctx: RequestContext) {
            std::thread::sleep(Duration::from_millis(30));
            ctx.respond_ok(Vec::new());
        }
    }
    let mut config = ServerConfig::default();
    config.workers(1).queue_capacity(1);
    let server = Server::spawn(config, Arc::new(Slow)).unwrap();
    let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
    let (tx, rx) = std::sync::mpsc::channel();
    for _ in 0..20 {
        let tx = tx.clone();
        client.call_async(1, Vec::new(), move |result| {
            tx.send(result).unwrap();
        });
    }
    drop(tx);
    let mut shed = 0;
    let mut served = 0;
    while let Ok(result) = rx.recv() {
        match result {
            Ok(_) => served += 1,
            Err(RpcError::Remote { status: Status::Unavailable, .. }) => shed += 1,
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert!(served >= 1, "at least one request must be served: {served}");
    assert!(shed > 0, "a 1-deep queue under 20 instant requests must shed");
    // Overload is refused either at the admission gate (per-class shed)
    // or, past the gate, at the queue bound; both answer `Unavailable`.
    assert!(server.stats().rejected() + server.stats().shed_total() > 0);
}

#[test]
fn shared_pollers_hold_network_threads_fixed_under_256_connections() {
    fn process_threads() -> usize {
        std::fs::read_dir("/proc/self/task").map(|dir| dir.count()).unwrap_or(0)
    }

    let mut config = ServerConfig::default();
    config.network_model(NetworkModel::SharedPollers { pollers: 2 }).workers(2);
    let server = echo_server(config);
    let before = process_threads();

    // All 256 client connections share one two-poller reactor too, so the
    // client side of this test is also O(1) threads.
    let reactor = Arc::new(Reactor::start(ReactorConfig { pollers: 2, ..Default::default() }));
    let clients: Vec<Arc<RpcClient>> = (0..256)
        .map(|_| {
            Arc::new(RpcClient::connect_with(server.local_addr(), None, Some(&reactor)).unwrap())
        })
        .collect();

    // Every connection issues a request concurrently; every one completes
    // with its own payload.
    let (tx, rx) = std::sync::mpsc::channel();
    for (i, client) in clients.iter().enumerate() {
        let tx = tx.clone();
        client.call_async(1, (i as u32).to_le_bytes().to_vec(), move |result| {
            tx.send((i, result)).unwrap();
        });
    }
    drop(tx);
    let mut seen = vec![false; clients.len()];
    for _ in 0..clients.len() {
        let (i, result) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(result.unwrap(), (i as u32).to_le_bytes().to_vec());
        assert!(!seen[i], "connection {i} completed twice");
        seen[i] = true;
    }
    assert!(seen.iter().all(|&done| done), "every request must complete");

    // The architectural claim: the server's network edge is its 2 pollers,
    // not 256 per-connection threads.
    assert_eq!(server.connection_count(), 256);
    assert_eq!(server.network_threads(), 2, "poller pool must not scale with connections");
    // Whole-process growth: 2 client-side sweepers plus whatever the other
    // concurrently-running tests in this binary spawned. The bound is
    // loose for that noise, yet far below the 256 threads that
    // thread-per-connection would have added on each side.
    let after = process_threads();
    assert!(
        after <= before + 64,
        "512 reactor-managed connections grew the process by {} threads",
        after.saturating_sub(before)
    );
}

#[test]
fn many_connections_churn() {
    let server = echo_server(ServerConfig::default());
    for round in 0..30 {
        let client = RpcClient::connect(server.local_addr()).unwrap();
        let payload = vec![round as u8; 16];
        assert_eq!(client.call(1, payload.clone()).unwrap(), payload);
        client.shutdown();
    }
}

#[test]
fn huge_payload_roundtrips() {
    let server = echo_server(ServerConfig::default());
    let client = RpcClient::connect(server.local_addr()).unwrap();
    let payload = vec![0xA5u8; 4 << 20]; // 4 MiB, well under MAX_FRAME_LEN
    assert_eq!(client.call(1, payload.clone()).unwrap(), payload);
}

#[test]
fn concurrent_mixed_sync_async_traffic() {
    let server = echo_server(ServerConfig::default());
    let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
    let (tx, rx) = std::sync::mpsc::channel();
    let async_count = 100u32;
    for i in 0..async_count {
        let tx = tx.clone();
        client.call_async(1, i.to_le_bytes().to_vec(), move |result| {
            tx.send(result.is_ok()).unwrap();
        });
    }
    let mut threads = Vec::new();
    for t in 0..4u32 {
        let client = client.clone();
        threads.push(std::thread::spawn(move || {
            for i in 0..50u32 {
                let payload = (t * 1000 + i).to_le_bytes().to_vec();
                assert_eq!(client.call(1, payload.clone()).unwrap(), payload);
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    for _ in 0..async_count {
        assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap());
    }
}

#[test]
fn fanout_survives_stuck_and_garbage_leaves() {
    use bytes::Bytes;
    use musuite::rpc::FanoutGroup;
    use std::net::TcpListener;

    // Replies with fixed bytes unrelated to the request — a leaf that is
    // alive at the transport level but talking nonsense.
    struct Garbage;
    impl Service for Garbage {
        fn call(&self, ctx: RequestContext) {
            ctx.respond_ok(vec![0xDE; 33]);
        }
    }

    let healthy = echo_server(ServerConfig::default());
    // A listener that accepts and then holds the connection open forever.
    let stuck = TcpListener::bind("127.0.0.1:0").unwrap();
    let stuck_addr = stuck.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut conns = Vec::new();
        while let Ok((conn, _)) = stuck.accept() {
            conns.push(conn);
        }
    });
    let garbage = Server::spawn(ServerConfig::default(), Arc::new(Garbage)).unwrap();

    let group =
        FanoutGroup::connect(&[healthy.local_addr(), stuck_addr, garbage.local_addr()]).unwrap();

    // One shared buffer referenced by all three leaf payloads.
    let shared = Bytes::from(vec![0x5A; 128]);
    let requests: Vec<(usize, u32, Bytes)> =
        (0..3).map(|leaf| (leaf, 1u32, shared.clone())).collect();
    let (tx, rx) = std::sync::mpsc::channel();
    let opts = CallOptions::within(Duration::from_millis(300));
    group.scatter_encoded(requests, opts, move |result| tx.send(result).unwrap());
    let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();

    // Slot N holds leaf N's outcome regardless of completion order.
    assert_eq!(result.replies.len(), 3);
    let echoed = result.replies[0].as_ref().expect("healthy leaf replies");
    assert_eq!(echoed, &shared, "echo returns the shared payload");
    assert!(
        matches!(result.replies[1], Err(RpcError::TimedOut)),
        "stuck leaf must surface as a timeout, got {:?}",
        result.replies[1]
    );
    let nonsense = result.replies[2].as_ref().expect("garbage leaf still completes its RPC");
    assert_eq!(&nonsense[..], &[0xDE; 33][..]);
    // The shared buffer is aliased by every in-flight request; neither the
    // failed slot nor the garbage reply may have scribbled on it.
    assert!(shared.iter().all(|&b| b == 0x5A), "shared payload buffer corrupted");
    assert!(!result.all_ok());
}

#[test]
fn midtier_survives_leaf_flap() {
    use musuite::data::text::{CorpusConfig, TextCorpus};
    use musuite::setalgebra::service::SetAlgebraService;
    let corpus = TextCorpus::generate(&CorpusConfig {
        documents: 300,
        vocabulary: 150,
        doc_len: 25,
        ..Default::default()
    });
    let service = SetAlgebraService::launch(&corpus, 3, 0).unwrap();
    let client = service.client().unwrap();
    let query = corpus.sample_queries(1).remove(0);
    let healthy = client.search_with_status(&query).unwrap();
    assert!(!healthy.degraded, "all shards alive: full-fidelity result");
    // Kill one shard: a surviving 2/3 quorum still answers, but the lost
    // shard must never be dropped *silently* — the response says so.
    service.cluster().leaf_servers()[1].shutdown();
    std::thread::sleep(Duration::from_millis(50));
    let result = client.search_with_status(&query).unwrap();
    assert!(result.degraded, "lost shard must be reported, not hidden");
    assert_eq!((result.shards_ok, result.shards_total), (2, 3));
    // Kill a second shard: 1/3 is below quorum — now it is an error, and
    // the mid-tier must keep serving its socket (error again, promptly).
    service.cluster().leaf_servers()[2].shutdown();
    std::thread::sleep(Duration::from_millis(50));
    assert!(client.search(&query).is_err(), "below quorum must error");
    assert!(client.search(&query).is_err());
}

/// A peer that resets the connection in the middle of a burst from several
/// threads: one thread's write fails, frames the others had queued behind it
/// are lost with it — and every call, whichever thread issued it and
/// whether or not its frame ever left, completes exactly once with an
/// error. None hangs waiting for a close the peer never sends.
#[test]
fn peer_reset_mid_burst_fails_every_inflight_call_exactly_once() {
    use std::sync::atomic::{AtomicU32, Ordering};
    const THREADS: usize = 3;
    const PER_THREAD: usize = 400;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let client = Arc::new(RpcClient::connect(listener.local_addr().unwrap()).unwrap());
    let (peer, _) = listener.accept().unwrap();
    let completions: Arc<Vec<AtomicU32>> =
        Arc::new((0..THREADS * PER_THREAD).map(|_| AtomicU32::new(0)).collect());
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let issuers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (client, completions, done_tx) =
                (client.clone(), completions.clone(), done_tx.clone());
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let (completions, done_tx) = (completions.clone(), done_tx.clone());
                    let slot = t * PER_THREAD + i;
                    // 16 KiB each: the burst outgrows the socket buffers,
                    // so writers are still at it when the reset lands.
                    client.call_async(1, vec![t as u8; 16 << 10], move |result| {
                        completions[slot].fetch_add(1, Ordering::SeqCst);
                        let _ = done_tx.send(result.map(drop));
                    });
                }
            })
        })
        .collect();
    drop(done_tx);
    // Closing a socket with unread data in it sends RST, not FIN.
    std::thread::sleep(Duration::from_millis(20));
    drop(peer);
    for issuer in issuers {
        issuer.join().unwrap();
    }
    for _ in 0..THREADS * PER_THREAD {
        let result = done_rx.recv_timeout(Duration::from_secs(10)).expect("a call hung");
        assert!(
            matches!(result, Err(RpcError::ConnectionClosed | RpcError::Io(_))),
            "a call on a reset connection ended with {result:?}"
        );
    }
    assert!(completions.iter().all(|n| n.load(Ordering::SeqCst) == 1), "completed twice");
    assert!(client.is_closed());
    assert_eq!(client.inflight_len(), 0);
}
