//! Typed leaf microservice adapter.
//!
//! Leaves perform the service's actual computation (distance kernels, set
//! intersections, memcached lookups, collaborative filtering) and are
//! synchronous: the worker that dequeues a request computes the response
//! and replies immediately.

use crate::error::ServiceError;
use musuite_codec::{Decode, Encode};
use musuite_rpc::buf::flush_outbox;
use musuite_rpc::{RequestContext, Service};
use std::vec::Drain;

/// Typed request→response computation hosted at a leaf microserver.
pub trait LeafHandler: Send + Sync + 'static {
    /// The decoded request type.
    type Request: Decode;
    /// The encoded response type.
    type Response: Encode;

    /// Computes the response for one request.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] for malformed or unprocessable requests;
    /// the error's status and message travel back to the mid-tier.
    fn handle(&self, request: Self::Request) -> Result<Self::Response, ServiceError>;

    /// Returns `true` if handling `request` costs more than a socket write
    /// (some 20 µs with the peer's wake-up): the serving thread then writes
    /// the responses it holds back for ready work before the handler
    /// starts, instead of making them wait it out. A batch does so if any
    /// of its members runs long.
    ///
    /// The default, `false`, suits handlers cheaper than a write, whose
    /// responses leave together when the thread runs out of ready work.
    /// Declare from a cost measured once per handler, not per call: the
    /// answer must be cheap, and a function of the request alone.
    fn runs_long(&self, _request: &Self::Request) -> bool {
        false
    }

    /// Computes responses for a batch of two or more requests drained in
    /// one worker wakeup, returning one result per request, *in order*.
    ///
    /// The default calls [`LeafHandler::handle`] per member. A leaf
    /// overrides it only where a benchmark workload runs batches and one
    /// pass can answer them all (today Recommend's matrix pass); a batch
    /// of one never comes here. An override must be *observationally
    /// equivalent* to the default: bit-identical results in the same
    /// order — the batch-equivalence proptests pin this for every suite
    /// service.
    fn handle_batch(
        &self,
        requests: Vec<Self::Request>,
    ) -> Vec<Result<Self::Response, ServiceError>> {
        requests.into_iter().map(|request| self.handle(request)).collect()
    }
}

/// Takes `ctx`'s payload and decodes it, or gives the `BadRequest` that
/// refuses it.
pub(crate) fn decode<T: Decode>(ctx: &mut RequestContext) -> Result<T, ServiceError> {
    musuite_codec::from_bytes(&ctx.take_payload())
        .map_err(|e| ServiceError::bad_request(e.to_string()))
}

/// Completes `ctx` with the encoded response, or with the error's status
/// and message.
pub(crate) fn respond<T: Encode>(ctx: RequestContext, result: Result<T, ServiceError>) {
    match result {
        Ok(response) => ctx.respond_ok(musuite_codec::to_bytes(&response)),
        Err(e) => ctx.respond_err(e.status(), e.message()),
    }
}

/// Adapts a [`LeafHandler`] to the untyped [`Service`] interface.
#[derive(Debug)]
pub struct LeafService<H> {
    handler: H,
}

impl<H: LeafHandler> LeafService<H> {
    /// Wraps `handler` for hosting in an RPC server.
    pub fn new(handler: H) -> LeafService<H> {
        LeafService { handler }
    }

    /// A reference to the wrapped handler.
    pub fn handler(&self) -> &H {
        &self.handler
    }
}

impl<H: LeafHandler> Service for LeafService<H> {
    fn call(&self, mut ctx: RequestContext) {
        let request = match decode::<H::Request>(&mut ctx) {
            Ok(request) => request,
            Err(refusal) => return respond::<H::Response>(ctx, Err(refusal)),
        };
        if self.handler.runs_long(&request) {
            flush_outbox();
        }
        respond(ctx, self.handler.handle(request));
    }

    fn call_batch(&self, batch: Drain<'_, RequestContext>) {
        // A malformed member is refused alone, without discarding its
        // batchmates, and answered in its place among them.
        let mut members = Vec::with_capacity(batch.len());
        let mut requests = Vec::with_capacity(batch.len());
        for mut ctx in batch {
            let refusal = match decode(&mut ctx) {
                Ok(request) => {
                    requests.push(request);
                    None
                }
                Err(refusal) => Some(refusal),
            };
            members.push((ctx, refusal));
        }
        if requests.iter().any(|request| self.handler.runs_long(request)) {
            flush_outbox();
        }
        let expected = requests.len();
        let results = self.handler.handle_batch(requests);
        debug_assert_eq!(
            results.len(),
            expected,
            "handle_batch must return one result per request"
        );
        let mut results = results.into_iter();
        for (ctx, refusal) in members {
            // On a (buggy) short result vector, unmatched contexts drop and
            // auto-respond AppError, so no client is ever left hanging.
            if let Some(result) = refusal.map(Err).or_else(|| results.next()) {
                respond(ctx, result);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use musuite_rpc::{
        BatchPolicy, ExecutionModel, Frame, RecvBuf, RpcClient, RpcError, Server, ServerConfig,
        ServerStats, Status,
    };
    use std::io::Write;
    use std::net::TcpStream;
    use std::sync::{mpsc, Arc, Mutex, OnceLock};
    use std::time::{Duration, Instant};

    /// How long a test waits for a reply, or a handler for a word from it.
    pub(crate) const PATIENCE: Duration = Duration::from_secs(5);

    /// Sends `requests` to `server` in one write; returns the connection.
    pub(crate) fn send_together<T: musuite_codec::Encode>(
        server: &Server,
        requests: &[T],
    ) -> TcpStream {
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let wire: Vec<u8> = requests
            .iter()
            .enumerate()
            .flat_map(|(id, request)| {
                Frame::request(id as u64, 1, musuite_codec::to_bytes(request)).to_bytes()
            })
            .collect();
        conn.write_all(&wire).unwrap();
        conn.set_read_timeout(Some(PATIENCE)).unwrap();
        conn
    }

    /// The request id of the next reply on `conn`; panics after `PATIENCE`.
    pub(crate) fn next_reply(conn: &TcpStream, buf: &mut RecvBuf) -> u64 {
        buf.poll_frame(&mut &*conn).unwrap().expect("a reply in time").0.header.request_id
    }

    /// Waits until `stats` has admitted `count` requests.
    pub(crate) fn wait_admitted(stats: &ServerStats, count: u64) {
        let deadline = Instant::now() + PATIENCE;
        while stats.requests() < count {
            assert!(Instant::now() < deadline, "the other requests never arrived");
            std::thread::yield_now();
        }
    }

    /// Doubles; an odd request runs long and says so, and waits for a word
    /// from the test before it answers.
    struct OddRunsLong {
        go: Mutex<mpsc::Receiver<()>>,
        /// Set: every request first waits until the server has admitted
        /// this many, so the worker does not run dry in between.
        queued: OnceLock<(ServerStats, u64)>,
    }

    impl LeafHandler for OddRunsLong {
        type Request = u64;
        type Response = u64;
        fn handle(&self, request: u64) -> Result<u64, ServiceError> {
            if let Some((stats, count)) = self.queued.get() {
                wait_admitted(stats, *count);
            }
            if request % 2 == 1 {
                let _ = self.go.lock().unwrap().recv_timeout(2 * PATIENCE);
            }
            Ok(request * 2)
        }
        fn runs_long(&self, request: &u64) -> bool {
            request % 2 == 1
        }
    }

    /// Serves `requests` in one write with an [`OddRunsLong`] under `config`:
    /// the first reply leaves before the long handler starts, or the
    /// handler waits for the test and the test for the reply until both
    /// give up.
    fn assert_first_reply_precedes_long_handler(
        config: &ServerConfig,
        requests: &[u64],
        queued: bool,
    ) {
        let (go, wait) = mpsc::channel();
        let handler = OddRunsLong { go: Mutex::new(wait), queued: OnceLock::new() };
        let service = Arc::new(LeafService::new(handler));
        let server = Server::spawn(config.clone(), service.clone()).unwrap();
        if queued {
            let _ = service.handler().queued.set((server.stats().clone(), requests.len() as u64));
        }
        let conn = send_together(&server, requests);
        let mut buf = RecvBuf::default();
        assert_eq!(next_reply(&conn, &mut buf), 0);
        go.send(()).unwrap();
        let rest: Vec<u64> = (1..requests.len()).map(|_| next_reply(&conn, &mut buf)).collect();
        assert_eq!(rest, (1..requests.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn a_request_that_runs_long_sends_the_reply_held_before_it() {
        for execution in [ExecutionModel::Inline, ExecutionModel::Dispatch] {
            let mut config = ServerConfig::default();
            config.workers(1).execution_model(execution);
            // Inline, the connection's thread reads both and runs both.
            let queued = execution == ExecutionModel::Dispatch;
            assert_first_reply_precedes_long_handler(&config, &[0, 1], queued);
        }
    }

    #[test]
    fn a_batch_with_a_member_that_runs_long_sends_the_replies_held_before_it() {
        let mut config = ServerConfig::default();
        config.workers(1).batch_policy(BatchPolicy::new(2, Duration::ZERO));
        // Batches [0, 2] then [1], or [0] then [2, 1]: either way the one
        // that runs long comes after a reply is held.
        assert_first_reply_precedes_long_handler(&config, &[0, 2, 1], true);
    }

    struct Doubler;
    impl LeafHandler for Doubler {
        type Request = u64;
        type Response = u64;
        fn handle(&self, request: u64) -> Result<u64, ServiceError> {
            request.checked_mul(2).ok_or_else(|| ServiceError::new("overflow doubling value"))
        }
    }

    fn doubler_server() -> Server {
        Server::spawn(ServerConfig::default(), Arc::new(LeafService::new(Doubler))).unwrap()
    }

    #[test]
    fn typed_leaf_roundtrip() {
        let server = doubler_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        let reply = client.call(1, musuite_codec::to_bytes(&21u64)).unwrap();
        let doubled: u64 = musuite_codec::from_bytes(&reply).unwrap();
        assert_eq!(doubled, 42);
    }

    #[test]
    fn handler_error_maps_to_status() {
        let server = doubler_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        let err = client.call(1, musuite_codec::to_bytes(&u64::MAX)).unwrap_err();
        match err {
            RpcError::Remote { status, detail } => {
                assert_eq!(status, Status::AppError);
                assert!(detail.contains("overflow"));
            }
            other => panic!("expected remote error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_payload_is_bad_request() {
        let server = doubler_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        // A truncated varint is not a valid u64.
        let err = client.call(1, vec![0x80]).unwrap_err();
        assert!(matches!(err, RpcError::Remote { status: Status::BadRequest, .. }));
    }

    #[test]
    fn handler_accessor() {
        let service = LeafService::new(Doubler);
        assert!(service.handler().handle(5).is_ok());
    }

    #[test]
    fn default_handle_batch_matches_sequential() {
        let inputs = vec![1u64, 2, u64::MAX, 4];
        let batched = Doubler.handle_batch(inputs.clone());
        assert_eq!(batched.len(), 4);
        for (input, result) in inputs.into_iter().zip(&batched) {
            match Doubler.handle(input) {
                Ok(expected) => assert_eq!(result.as_ref().unwrap(), &expected),
                Err(_) => assert!(result.is_err()),
            }
        }
    }

    /// A malformed member is refused in its place: the replies to
    /// `[valid, malformed, valid]`, drained as one batch, leave in that
    /// order.
    #[test]
    fn a_batch_answers_its_members_in_member_order() {
        let mut config = ServerConfig::default();
        config.workers(1).batch_policy(BatchPolicy::new(3, PATIENCE));
        let server = Server::spawn(config, Arc::new(LeafService::new(Doubler))).unwrap();
        let payloads = [musuite_codec::to_bytes(&1u64), vec![0x80], musuite_codec::to_bytes(&2u64)];
        let wire: Vec<u8> = payloads
            .into_iter()
            .enumerate()
            .flat_map(|(id, payload)| Frame::request(id as u64, 1, payload).to_bytes())
            .collect();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(&wire).unwrap();
        conn.set_read_timeout(Some(PATIENCE)).unwrap();
        let mut buf = RecvBuf::default();
        let order: Vec<u64> = (0..3).map(|_| next_reply(&conn, &mut buf)).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(server.stats().batching().batches(), 1, "the three ran as one batch");
    }

    #[test]
    fn batched_server_roundtrip_with_mixed_outcomes() {
        use musuite_rpc::BatchPolicy;
        use std::time::Duration;
        let mut config = ServerConfig::default();
        config.workers(1).batch_policy(BatchPolicy::new(8, Duration::from_micros(200)));
        let server = Server::spawn(config, Arc::new(LeafService::new(Doubler))).unwrap();
        let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
        let (tx, rx) = std::sync::mpsc::channel();
        // Good, overflowing, and malformed members interleaved: each must
        // resolve with its own outcome even when drained as one batch.
        for i in 0..30u64 {
            let tx = tx.clone();
            let payload = match i % 3 {
                0 => musuite_codec::to_bytes(&i),
                1 => musuite_codec::to_bytes(&u64::MAX),
                _ => vec![0x80], // truncated varint
            };
            client.call_async(1, payload, move |result| tx.send((i, result)).unwrap());
        }
        drop(tx);
        let mut outcomes = 0;
        while let Ok((i, result)) = rx.recv() {
            outcomes += 1;
            match i % 3 {
                0 => {
                    let doubled: u64 = musuite_codec::from_bytes(&result.unwrap()).unwrap();
                    assert_eq!(doubled, i * 2);
                }
                1 => assert!(matches!(
                    result.unwrap_err(),
                    RpcError::Remote { status: Status::AppError, .. }
                )),
                _ => assert!(matches!(
                    result.unwrap_err(),
                    RpcError::Remote { status: Status::BadRequest, .. }
                )),
            }
        }
        assert_eq!(outcomes, 30);
    }
}
