//! The server-side service abstraction: handlers with *explicit* RPC state.
//!
//! μSuite services are asynchronous: "there is no association between an
//! execution thread and a particular RPC — all RPC state is explicit"
//! (paper §IV). A handler therefore receives a [`RequestContext`] it can
//! move into closures (e.g. a leaf fan-out completion); whichever thread
//! ends up holding the context completes the RPC by calling
//! [`RequestContext::respond_ok`]. Mid-tier handlers typically hand the
//! context to the *last* leaf-response thread, which merges and responds —
//! the worker moves on to the next request immediately after issuing the
//! fan-out.

use crate::admission::AdmissionPermit;
use crate::buf::{too_large, SharedWriter};
use crate::client::budget_for;
use crate::stats::ServerStats;
use bytes::{Bytes, BytesMut};
use musuite_check::atomic::{AtomicU64, Ordering};
use musuite_codec::frame::FrameHeader;
use musuite_codec::{Encode, Frame, FrameKind, Priority, Status};
use musuite_telemetry::breakdown::Stage;
use musuite_telemetry::clock::Clock;
use std::time::{Duration, Instant};

/// A request handler.
///
/// Handlers run on worker threads (dispatch model) or network pollers
/// (inline model). They receive ownership of the [`RequestContext`] and
/// must eventually complete it — either synchronously before returning or
/// from another thread (a dropped, uncompleted context automatically
/// responds with [`Status::AppError`] so clients never hang).
///
/// Those threads write what they queue (responses, `call_async` requests)
/// when they run out of ready work or hold
/// [`MAX_HELD_FRAMES`](crate::buf::MAX_HELD_FRAMES), and what blocks in this
/// crate (`call`, `scatter_wait`) writes it first; no clock cuts a burst
/// short. A handler that waits on something of its own for a call it
/// issued, keeps working after it responded, or is about to run longer than
/// a write (some 20 µs) calls [`flush_outbox`](crate::buf::flush_outbox)
/// before, or the frames queued ahead of it wait it out. The typed handlers
/// of `musuite-core` declare the last case with `runs_long` instead.
pub trait Service: Send + Sync + 'static {
    /// Handles one request.
    fn call(&self, ctx: RequestContext);

    /// Handles a batch of two or more requests drained in one worker
    /// wakeup; a batch of one goes to [`Service::call`]. The members are
    /// lent as a drain of the worker's own buffer, which it keeps for the
    /// next batch. The default calls [`Service::call`] once per member, in
    /// queue order; a service whose work amortizes across members (one
    /// matrix pass for several queries) overrides it. Every context must
    /// still be completed exactly once, and the responses sent in member
    /// order.
    fn call_batch(&self, batch: std::vec::Drain<'_, RequestContext>) {
        for ctx in batch {
            self.call(ctx);
        }
    }
}

impl<F> Service for F
where
    F: Fn(RequestContext) + Send + Sync + 'static,
{
    fn call(&self, ctx: RequestContext) {
        self(ctx)
    }
}

/// Everything a handler needs to process and complete one RPC.
///
/// The request payload is a [`Bytes`] slice of the connection's receive
/// buffer — no copy was made between the socket and this context.
///
/// The context is completed at most once; completing it responds on the
/// originating connection. If a handler drops the context without
/// responding, an [`Status::AppError`] response is sent so the client is
/// never left waiting.
#[derive(Debug)]
pub struct RequestContext {
    method: u32,
    request_id: u64,
    payload: Bytes,
    received_at_ns: u64,
    priority: Priority,
    deadline: Option<Instant>,
    permit: Option<AdmissionPermit>,
    leaf_ns: AtomicU64,
    writer: SharedWriter,
    stats: ServerStats,
    clock: Clock,
    completed: bool,
}

impl RequestContext {
    pub(crate) fn new(
        frame: Frame,
        received_at_ns: u64,
        writer: SharedWriter,
        stats: ServerStats,
    ) -> RequestContext {
        // Convert the wire budget (µs remaining as of transmission) into a
        // local absolute deadline at the moment the frame is fully read, so
        // queueing and execution on this hop decay it naturally.
        let deadline = match frame.header.deadline_budget_us {
            0 => None,
            budget_us => Some(Instant::now() + Duration::from_micros(u64::from(budget_us))),
        };
        RequestContext {
            method: frame.header.method,
            request_id: frame.header.request_id,
            payload: frame.payload,
            received_at_ns,
            priority: frame.header.priority,
            deadline,
            permit: None,
            leaf_ns: AtomicU64::new(0),
            writer,
            stats,
            clock: Clock::new(),
            completed: false,
        }
    }

    /// Attaches the admission slot this request holds; it is returned to
    /// the gate when the context drops (after responding, or abandoned).
    pub(crate) fn attach_permit(&mut self, permit: AdmissionPermit) {
        self.permit = Some(permit);
    }

    /// The method id the client invoked.
    pub fn method(&self) -> u32 {
        self.method
    }

    /// The client's request id (unique per connection).
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The request payload: a zero-copy slice of the connection's read
    /// buffer (dereferences to `&[u8]` for decoding).
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// Takes a cheap owned handle to the payload, leaving the context's
    /// copy empty. Cloning `Bytes` bumps a reference count; no bytes move.
    pub fn take_payload(&mut self) -> Bytes {
        std::mem::take(&mut self.payload)
    }

    /// Monotonic timestamp at which the request was fully read.
    pub fn received_at_ns(&self) -> u64 {
        self.received_at_ns
    }

    /// The priority class carried on the request frame.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The absolute local deadline derived from the wire budget, or
    /// `None` when the request carried no budget.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Deadline budget still remaining, in microseconds, for forwarding
    /// to downstream hops: the wire budget this request arrived with
    /// minus time already spent on this hop. Returns 0 when the request
    /// carries no deadline, and floors at 1 µs once a deadline has
    /// expired — so a dead request forwarded anyway is marked
    /// ~expired downstream rather than unbounded.
    pub fn remaining_budget(&self) -> u32 {
        budget_for(self.deadline)
    }

    /// Returns `true` once this request's deadline budget is exhausted —
    /// the caller has given up, so executing the handler would only burn
    /// worker time. Always `false` for budget-less requests.
    pub fn is_expired(&self) -> bool {
        self.deadline.is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// The server's stage-breakdown recorder, for handlers that attribute
    /// additional stages (e.g. fan-out issue and merge time).
    pub fn breakdown(&self) -> &musuite_telemetry::breakdown::BreakdownRecorder {
        self.stats.breakdown()
    }

    /// Attributes `ns` of this request's latency to waiting on leaves,
    /// excluding it from the `Net` (mid-tier) stage. Called by the fan-out
    /// helper.
    pub fn add_leaf_time_ns(&self, ns: u64) {
        self.leaf_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Completes the RPC successfully with `payload`, bytes already
    /// encoded: they are copied into the connection's pending buffer. A
    /// typed response goes through [`RequestContext::respond_encoded`]
    /// instead, which skips the intermediate buffer.
    pub fn respond_ok(self, payload: impl AsRef<[u8]>) {
        self.respond(Status::Ok, payload);
    }

    /// Completes the RPC successfully with `response`, encoded straight
    /// into the connection's pending buffer: no buffer of its own is
    /// allocated for it.
    pub fn respond_encoded<T: Encode + ?Sized>(mut self, response: &T) {
        self.completed = true;
        self.send_response(Status::Ok, |buf| response.encode(buf));
    }

    /// Completes the RPC with an error status and diagnostic bytes.
    pub fn respond_err(self, status: Status, detail: impl AsRef<[u8]>) {
        self.respond(status, detail);
    }

    /// Completes the RPC with an explicit status. The body is borrowed:
    /// it is serialized straight into the connection's pending buffer.
    pub fn respond(mut self, status: Status, payload: impl AsRef<[u8]>) {
        self.completed = true;
        self.send_response(status, |buf| buf.extend_from_slice(payload.as_ref()));
    }

    /// Writes the response frame, its payload appended by `body`. A
    /// payload over the frame size limit is refused alone: the client gets
    /// [`Status::AppError`] saying so, and the connection carries on.
    fn send_response(&self, status: Status, body: impl FnOnce(&mut BytesMut)) {
        let header = FrameHeader::new(FrameKind::Response, self.request_id, self.method, status);
        let tx_start = self.clock.now_ns();
        // Account the response *before* the bytes hit the wire: the moment
        // `write_all` hands the frame to the kernel, the client can observe
        // completion, and observers expect the server's counters to already
        // reflect it.
        let total = tx_start.saturating_sub(self.received_at_ns);
        let leaf = self.leaf_ns.load(Ordering::Relaxed);
        let breakdown = self.stats.breakdown();
        breakdown.record_ns(Stage::Net, total.saturating_sub(leaf));
        self.stats.record_response(self.clock.delta(self.received_at_ns, tx_start));
        // A send failure means the client went away; there is nobody
        // left to report the error to, so it is intentionally dropped.
        // The frame serializes into the connection's shared pending
        // buffer — no per-response allocation — and may coalesce with
        // competing responses into a single socket write.
        if let Err(refused) = self.writer.write_with(&header, body) {
            if too_large(&refused) {
                let header = FrameHeader { status: Status::AppError, ..header };
                let detail = format!("response not sent: {refused}");
                let _ =
                    self.writer.write_with(&header, |buf| buf.extend_from_slice(detail.as_bytes()));
            }
        }
        // NetTx covers queueing plus (when this thread flushed) the wire
        // hand-off; a coalesced frame's NetTx is just its queueing time.
        breakdown.record(Stage::NetTx, self.clock.delta(tx_start, self.clock.now_ns()));
    }
}

impl Drop for RequestContext {
    fn drop(&mut self) {
        if !self.completed {
            // C-DTOR-FAIL: never panic here; make a best effort to unblock
            // the client.
            self.completed = true;
            self.send_response(Status::AppError, |_| {});
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::{loopback_pair, ConnWriter};
    use musuite_codec::FrameKind;
    use std::io::Read;
    use std::net::TcpStream;
    use std::sync::Arc;

    fn context_for(stream: TcpStream, stats: &ServerStats) -> RequestContext {
        let frame = Frame::request(11, 5, b"req".to_vec());
        RequestContext::new(
            frame,
            Clock::new().now_ns(),
            Arc::new(ConnWriter::new(stream)),
            stats.clone(),
        )
    }

    fn read_response(stream: &mut TcpStream) -> Frame {
        let mut bytes = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            let n = stream.read(&mut buf).unwrap();
            bytes.extend_from_slice(&buf[..n]);
            if let Ok((frame, _)) = Frame::parse(&Bytes::from(bytes.clone())) {
                return frame;
            }
        }
    }

    #[test]
    fn respond_ok_writes_response_frame() {
        let (mut client, server_side) = loopback_pair();
        let stats = ServerStats::new();
        let ctx = context_for(server_side, &stats);
        assert_eq!(ctx.method(), 5);
        assert_eq!(ctx.request_id(), 11);
        assert_eq!(ctx.payload(), b"req");
        ctx.respond_ok(b"resp");
        let frame = read_response(&mut client);
        assert_eq!(frame.header.kind, FrameKind::Response);
        assert_eq!(frame.header.request_id, 11);
        assert_eq!(frame.header.status, Status::Ok);
        assert_eq!(frame.payload, b"resp");
        assert_eq!(stats.responses(), 1);
    }

    #[test]
    fn dropped_context_sends_app_error() {
        let (mut client, server_side) = loopback_pair();
        let stats = ServerStats::new();
        {
            let _ctx = context_for(server_side, &stats);
            // dropped without responding
        }
        let frame = read_response(&mut client);
        assert_eq!(frame.header.status, Status::AppError);
    }

    #[test]
    fn respond_err_carries_detail() {
        let (mut client, server_side) = loopback_pair();
        let stats = ServerStats::new();
        let ctx = context_for(server_side, &stats);
        ctx.respond_err(Status::BadRequest, "bad field");
        let frame = read_response(&mut client);
        assert_eq!(frame.header.status, Status::BadRequest);
        assert_eq!(frame.payload, b"bad field");
    }

    #[test]
    fn leaf_time_reduces_net_stage() {
        let (_client, server_side) = loopback_pair();
        let stats = ServerStats::new();
        let ctx = context_for(server_side, &stats);
        ctx.add_leaf_time_ns(u64::MAX / 2); // enormous leaf time
        ctx.respond_ok(Vec::new());
        let net = stats.breakdown().histogram(Stage::Net);
        assert_eq!(net.count(), 1);
        // total - leaf saturates to ~0 because leaf time exceeds total.
        assert!(net.max() < std::time::Duration::from_millis(1));
    }

    #[test]
    fn take_payload_moves_bytes() {
        let (_client, server_side) = loopback_pair();
        let stats = ServerStats::new();
        let mut ctx = context_for(server_side, &stats);
        let payload = ctx.take_payload();
        assert_eq!(payload, b"req");
        assert!(ctx.payload().is_empty());
        ctx.respond_ok(Vec::new());
    }

    #[test]
    fn budget_less_requests_never_expire() {
        let (_client, server_side) = loopback_pair();
        let stats = ServerStats::new();
        let ctx = context_for(server_side, &stats);
        assert_eq!(ctx.priority(), Priority::Normal);
        assert_eq!(ctx.deadline(), None);
        assert_eq!(ctx.remaining_budget(), 0);
        assert!(!ctx.is_expired());
        ctx.respond_ok(Vec::new());
    }

    #[test]
    fn wire_budget_becomes_local_deadline_and_decays() {
        let (_client, server_side) = loopback_pair();
        let stats = ServerStats::new();
        let frame = Frame::request(11, 5, b"req".to_vec()).with_budget(500_000, Priority::Critical);
        let ctx = RequestContext::new(
            frame,
            Clock::new().now_ns(),
            Arc::new(ConnWriter::new(server_side)),
            stats.clone(),
        );
        assert_eq!(ctx.priority(), Priority::Critical);
        assert!(!ctx.is_expired());
        let first = ctx.remaining_budget();
        assert!(first > 0 && first <= 500_000);
        std::thread::sleep(Duration::from_millis(5));
        let later = ctx.remaining_budget();
        assert!(later < first, "budget must decay with elapsed time");
        ctx.respond_ok(Vec::new());
    }

    #[test]
    fn tiny_budget_expires_but_floors_at_one() {
        let (_client, server_side) = loopback_pair();
        let stats = ServerStats::new();
        let frame = Frame::request(11, 5, b"req".to_vec()).with_budget(1, Priority::Sheddable);
        let ctx = RequestContext::new(
            frame,
            Clock::new().now_ns(),
            Arc::new(ConnWriter::new(server_side)),
            stats.clone(),
        );
        std::thread::sleep(Duration::from_millis(2));
        assert!(ctx.is_expired());
        assert_eq!(ctx.remaining_budget(), 1, "expired budget floors at 1µs, not 0 (= none)");
        ctx.respond_err(Status::DeadlineExpired, "deadline expired");
    }

    #[test]
    fn closure_is_a_service() {
        fn assert_service<S: Service>(_s: &S) {}
        let echo = |ctx: RequestContext| ctx.respond_ok(Vec::new());
        assert_service(&echo);
    }
}
