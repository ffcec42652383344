//! The service's own handlers, built directly and driven in-process.
//!
//! [`Handlers`] holds a workload's `MidTierHandler` and one `LeafHandler`
//! per shard — the same types the live cluster hosts — and replays a
//! request through them the way `MidTierService` and `LeafService` would,
//! minus sockets, queues and threads. The replay is the reference the live
//! cluster's responses are checked against, the source of the handler rows
//! of the cost ledger, and what the traced run puts spans around.

use crate::trace::{NoTrace, SpanRecorder, Tracer};
use bytes::Bytes;
use musuite_codec::{
    decode_batch, encode_batch, from_bytes, to_bytes, BatchEntry, Decode, Encode, Frame,
    FrameHeader, FrameKind, Status,
};
use musuite_core::cluster::{LEAF_METHOD, QUERY_METHOD};
use musuite_core::{LeafHandler, MidTierHandler};
use musuite_rpc::RpcError;
use std::hint::black_box;
use std::time::Instant;

/// Root span of one replayed request.
pub const SPAN_REQUEST: &str = "request";
/// Everything one targeted leaf contributes; hops run in parallel on the
/// wire, one after another in the replay.
pub const SPAN_LEAF_HOP: &str = "leaf.hop";

pub struct Handlers<M, L> {
    pub mid: M,
    pub leaves: Vec<L>,
}

/// [`Handlers`] with the service's types erased.
pub trait Reference: Send + Sync {
    /// Replays one encoded front-end request; returns the encoded response.
    fn replay(&self, request: &Bytes) -> Result<Bytes, String>;
    /// As [`Reference::replay`], with a span around every layer boundary.
    fn replay_traced(&self, request: &Bytes, spans: &mut SpanRecorder) -> Result<Bytes, String>;
    /// The encoded leaf requests one front-end request fans out to.
    fn leaf_requests(&self, request: &Bytes) -> Result<Vec<(usize, Bytes)>, String>;
    /// Frame bytes on the wire for one request and its (already replayed)
    /// response, plus every leaf request and response, headers included.
    fn wire_bytes(&self, request: &Bytes, response: &Bytes) -> Result<u64, String>;
    /// Median ns per call of the typed codec over `requests` (cycled).
    fn codec_ledger(&self, requests: &[Bytes], blocks: usize) -> Result<CodecLedger, String>;
    /// Median ns per member of `handle_batch` over batches of eight leaf
    /// requests aimed at one leaf, decode excluded.
    fn handle_batch8_ns(&self, requests: &[Bytes], batches: usize) -> Result<f64, String>;
}

#[derive(Debug, Clone, Copy, Default)]
pub struct CodecLedger {
    pub req_encode_ns: f64,
    pub req_parse_ns: f64,
    pub resp_encode_ns: f64,
    pub resp_parse_ns: f64,
    pub batch8_encode_ns: f64,
    pub batch8_decode_ns: f64,
}

fn frame_bytes(kind: FrameKind, method: u32, parts: &[&[u8]]) -> Bytes {
    let header = FrameHeader::new(kind, 1, method, Status::Ok);
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let mut buf = Vec::with_capacity(header.encoded_len() + len);
    header.encode_with_payload(parts, &mut buf);
    Bytes::from(buf)
}

fn parse_frame(wire: &Bytes) -> Result<Bytes, String> {
    Frame::parse(wire).map(|(frame, _)| frame.payload).map_err(|e| format!("frame: {e}"))
}

fn decode<T: Decode>(payload: &[u8], what: &str) -> Result<T, String> {
    from_bytes::<T>(payload).map_err(|e| format!("{what}: {e}"))
}

/// Median over `blocks` timed blocks of `per_block` calls each, in ns per
/// call. Blocks keep the clock reads out of nanosecond-scale kernels.
pub fn block_median_ns(blocks: usize, per_block: usize, mut call: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(blocks);
    let mut i = 0;
    for _ in 0..blocks {
        let start = Instant::now();
        for _ in 0..per_block {
            call(i);
            i += 1;
        }
        samples.push(start.elapsed().as_nanos() as f64 / per_block as f64);
    }
    crate::stats::median(&mut samples).unwrap_or(0.0)
}

impl<M, L> Handlers<M, L>
where
    M: MidTierHandler,
    M::Request: Encode + Clone,
    M::Response: Decode,
    L: LeafHandler,
{
    fn replay_with<T: Tracer>(&self, request: &Bytes, t: &mut T) -> Result<Bytes, String> {
        let root = t.enter(SPAN_REQUEST);

        let s = t.enter("codec.req_encode");
        let wire = frame_bytes(FrameKind::Request, QUERY_METHOD, &[request]);
        t.exit(s);
        let s = t.enter("codec.req_parse");
        let payload = parse_frame(&wire)?;
        let typed: M::Request = decode(&payload, "front-end request")?;
        t.exit(s);

        let s = t.enter("midtier.plan");
        let plan = self.mid.plan(&typed, self.leaves.len());
        t.exit(s);
        let s = t.enter("codec.shared_encode");
        let shared = to_bytes(&plan.shared);
        t.exit(s);

        let mut replies: Vec<Result<M::LeafResponse, RpcError>> =
            Vec::with_capacity(plan.targets.len());
        for (leaf, leaf_request) in plan.targets {
            let handler =
                self.leaves.get(leaf).ok_or_else(|| format!("plan targets missing leaf {leaf}"))?;
            let hop = t.enter(SPAN_LEAF_HOP);
            let s = t.enter("codec.leaf_req_encode");
            let suffix = to_bytes(&leaf_request);
            let wire = frame_bytes(FrameKind::Request, LEAF_METHOD, &[&shared, &suffix]);
            t.exit(s);
            let s = t.enter("codec.leaf_req_parse");
            let payload = parse_frame(&wire)?;
            let typed_leaf: L::Request = decode(&payload, "leaf request")?;
            t.exit(s);
            let s = t.enter("leaf.handle");
            let outcome = handler.handle(typed_leaf);
            t.exit(s);
            replies.push(match outcome {
                Ok(response) => {
                    let s = t.enter("codec.leaf_resp_encode");
                    let wire =
                        frame_bytes(FrameKind::Response, LEAF_METHOD, &[&to_bytes(&response)]);
                    t.exit(s);
                    let s = t.enter("codec.leaf_resp_parse");
                    let payload = parse_frame(&wire)?;
                    let typed = decode::<M::LeafResponse>(&payload, "leaf response")?;
                    t.exit(s);
                    Ok(typed)
                }
                Err(e) => {
                    Err(RpcError::Remote { status: e.status(), detail: e.message().to_owned() })
                }
            });
            t.exit(hop);
        }

        let s = t.enter("midtier.merge");
        let merged = self.mid.merge(typed, replies);
        t.exit(s);
        let response = merged.map_err(|e| format!("merge: {e}"))?;
        let s = t.enter("codec.resp_encode");
        let encoded = to_bytes(&response);
        let wire = frame_bytes(FrameKind::Response, QUERY_METHOD, &[&encoded]);
        t.exit(s);
        let s = t.enter("codec.resp_parse");
        let payload = parse_frame(&wire)?;
        black_box(decode::<M::Response>(&payload, "front-end response")?);
        t.exit(s);

        t.exit(root);
        Ok(payload)
    }
}

impl<M, L> Reference for Handlers<M, L>
where
    M: MidTierHandler,
    M::Request: Encode + Clone,
    M::Response: Decode,
    L: LeafHandler,
{
    fn replay(&self, request: &Bytes) -> Result<Bytes, String> {
        self.replay_with(request, &mut NoTrace)
    }

    fn replay_traced(&self, request: &Bytes, spans: &mut SpanRecorder) -> Result<Bytes, String> {
        self.replay_with(request, spans)
    }

    fn leaf_requests(&self, request: &Bytes) -> Result<Vec<(usize, Bytes)>, String> {
        let typed: M::Request = decode(request, "front-end request")?;
        let plan = self.mid.plan(&typed, self.leaves.len());
        let shared = to_bytes(&plan.shared);
        Ok(plan
            .targets
            .iter()
            .map(|(leaf, leaf_request)| {
                let mut payload = shared.clone();
                leaf_request.encode(&mut payload);
                (*leaf, Bytes::from(payload))
            })
            .collect())
    }

    fn wire_bytes(&self, request: &Bytes, response: &Bytes) -> Result<u64, String> {
        let header = FrameHeader::new(FrameKind::Request, 1, QUERY_METHOD, Status::Ok);
        let framed = |payload: usize| (header.encoded_len() + payload) as u64;
        let mut total = framed(request.len()) + framed(response.len());
        for (leaf, payload) in self.leaf_requests(request)? {
            total += framed(payload.len());
            let typed: L::Request = decode(&payload, "leaf request")?;
            let response = self.leaves[leaf].handle(typed).map_err(|e| format!("leaf: {e}"))?;
            total += framed(response.encoded_len());
        }
        Ok(total)
    }

    fn codec_ledger(&self, requests: &[Bytes], blocks: usize) -> Result<CodecLedger, String> {
        const PER_BLOCK: usize = 32;
        let typed: Vec<M::Request> = requests
            .iter()
            .map(|r| decode(r, "front-end request"))
            .collect::<Result<_, String>>()?;
        let request_wire: Vec<Bytes> =
            requests.iter().map(|r| frame_bytes(FrameKind::Request, QUERY_METHOD, &[r])).collect();
        let responses: Vec<Bytes> =
            requests.iter().map(|r| self.replay(r)).collect::<Result<_, String>>()?;
        let typed_responses: Vec<M::Response> = responses
            .iter()
            .map(|r| decode(r, "front-end response"))
            .collect::<Result<_, String>>()?;
        let response_wire: Vec<Bytes> = responses
            .iter()
            .map(|r| frame_bytes(FrameKind::Response, QUERY_METHOD, &[r]))
            .collect();
        let n = requests.len();
        let mut ledger = CodecLedger {
            req_encode_ns: block_median_ns(blocks, PER_BLOCK, |i| {
                let payload = to_bytes(&typed[i % n]);
                black_box(frame_bytes(FrameKind::Request, QUERY_METHOD, &[&payload]));
            }),
            req_parse_ns: block_median_ns(blocks, PER_BLOCK, |i| {
                let payload = parse_frame(&request_wire[i % n]).expect("frame built above");
                black_box(from_bytes::<M::Request>(&payload).expect("request decoded above"));
            }),
            resp_encode_ns: block_median_ns(blocks, PER_BLOCK, |i| {
                let payload = to_bytes(&typed_responses[i % n]);
                black_box(frame_bytes(FrameKind::Response, QUERY_METHOD, &[&payload]));
            }),
            resp_parse_ns: block_median_ns(blocks, PER_BLOCK, |i| {
                let payload = parse_frame(&response_wire[i % n]).expect("frame built above");
                black_box(from_bytes::<M::Response>(&payload).expect("response decoded above"));
            }),
            ..CodecLedger::default()
        };
        // Batch envelopes of eight consecutive requests, per member.
        let envelope = |start: usize| -> Vec<BatchEntry> {
            (0..8)
                .map(|j| {
                    BatchEntry::new(j as u64 + 1, QUERY_METHOD, requests[(start + j) % n].clone())
                })
                .collect()
        };
        let envelopes: Vec<Vec<BatchEntry>> = (0..n.min(64)).map(|i| envelope(i * 8)).collect();
        let envelope_wire: Vec<Bytes> = envelopes
            .iter()
            .map(|entries| Bytes::from(musuite_codec::batch_frame(entries).to_bytes()))
            .collect();
        let m = envelopes.len();
        ledger.batch8_encode_ns = block_median_ns(blocks, 4, |i| {
            let entries = &envelopes[i % m];
            let mut payload = Vec::with_capacity(musuite_codec::batch::encoded_len(entries));
            encode_batch(entries, &mut payload);
            black_box(frame_bytes(FrameKind::Batch, 0, &[&payload]));
        }) / 8.0;
        ledger.batch8_decode_ns = block_median_ns(blocks, 4, |i| {
            let payload = parse_frame(&envelope_wire[i % m]).expect("frame built above");
            black_box(decode_batch(&payload).expect("envelope built above"));
        }) / 8.0;
        Ok(ledger)
    }

    fn handle_batch8_ns(&self, requests: &[Bytes], batches: usize) -> Result<f64, String> {
        // Leaf requests per leaf, in request order; the busiest leaf is measured.
        let mut per_leaf: Vec<Vec<Bytes>> = vec![Vec::new(); self.leaves.len()];
        for request in requests {
            for (leaf, payload) in self.leaf_requests(request)? {
                per_leaf[leaf].push(payload);
            }
        }
        let (leaf, payloads) = per_leaf
            .iter()
            .enumerate()
            .max_by_key(|(_, payloads)| payloads.len())
            .ok_or("no leaves")?;
        if payloads.len() < 8 {
            return Err(format!("leaf {leaf} sees only {} requests", payloads.len()));
        }
        let mut samples = Vec::with_capacity(batches);
        for batch in 0..batches {
            let members: Vec<L::Request> = (0..8)
                .map(|j| decode(&payloads[(batch * 8 + j) % payloads.len()], "leaf request"))
                .collect::<Result<_, String>>()?;
            let start = Instant::now();
            let results = LeafHandler::handle_batch(&self.leaves[leaf], members);
            let elapsed = start.elapsed();
            if results.len() != 8 || results.iter().any(Result::is_err) {
                return Err("handle_batch dropped or failed a member".to_string());
            }
            black_box(results);
            samples.push(elapsed.as_nanos() as f64 / 8.0);
        }
        crate::stats::median(&mut samples).ok_or_else(|| "no batches".to_string())
    }
}
