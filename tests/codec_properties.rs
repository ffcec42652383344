//! Property-based tests for the wire codec and frame layer, including the
//! zero-copy guarantees: parsed payloads alias the input buffer (no copy)
//! and remain intact when the source handle is dropped or the reader's
//! pooled buffer is reused for later frames.

use bytes::{Bytes, BytesMut};
use musuite::codec::batch::{COUNT_LEN, ENTRY_HEADER_LEN};
use musuite::codec::{
    decode_batch, encode_batch, from_bytes, to_bytes, BatchEntry, Decode, DecodeError, Encode,
    Frame, FrameHeader, FrameKind, Priority, Status,
};
use musuite::codec::{from_payload, Seq, Text};
use musuite::core::degrade::Degraded;
use musuite::hdsearch::protocol::{LeafSearchRequest, LeafSearchResponse, Neighbor, SearchQuery};
use musuite::recommend::protocol::{LeafRating, RatingQuery};
use musuite::router::{KvRequest, KvResponse};
use musuite::rpc::RecvBuf;
use musuite::setalgebra::protocol::{PostingList, TermQuery};
use proptest::prelude::*;

/// A well-formed `FrameKind::Batch` envelope over `payloads`, and the
/// offset of each member's entry header inside it.
fn batch_envelope(payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let entries: Vec<BatchEntry> = payloads
        .iter()
        .enumerate()
        .map(|(i, payload)| BatchEntry::new(i as u64, 1, payload.clone()))
        .collect();
    let mut envelope = Vec::new();
    encode_batch(&entries, &mut envelope);
    let mut offsets = Vec::with_capacity(payloads.len());
    let mut offset = COUNT_LEN;
    for payload in payloads {
        offsets.push(offset);
        offset += ENTRY_HEADER_LEN + payload.len();
    }
    (envelope, offsets)
}

fn member_payloads(members: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..96), members)
}

fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = to_bytes(value);
    let decoded: T = from_bytes(&bytes).expect("well-formed bytes decode");
    assert_eq!(&decoded, value);
}

/// A frame whose payload `body` encodes in place is byte-for-byte the
/// frame of `parts`, the same payload encoded into buffers of its own
/// first.
fn in_place_matches_copied(
    header: &FrameHeader,
    body: impl FnOnce(&mut BytesMut),
    parts: &[&[u8]],
) -> Result<(), TestCaseError> {
    let mut copied = Vec::new();
    header.encode_with_payload(parts, &mut copied);
    let mut in_place = BytesMut::from(&b"frames queued before"[..]);
    header.encode_in_place(&mut in_place, body).unwrap();
    prop_assert_eq!(&in_place[20..], &copied[..]);
    Ok(())
}

/// [`in_place_matches_copied`] for one typed message.
fn typed_frame_matches(header: &FrameHeader, value: &impl Encode) -> Result<(), TestCaseError> {
    in_place_matches_copied(header, |buf| value.encode(buf), &[&to_bytes(value)])
}

fn header() -> impl Strategy<Value = FrameHeader> {
    (any::<u64>(), any::<u32>(), any::<u32>(), 0usize..3, any::<bool>()).prop_map(
        |(id, method, budget, priority, response)| {
            let kind = if response { FrameKind::Response } else { FrameKind::Request };
            FrameHeader::new(kind, id, method, Status::Ok)
                .with_budget(budget, Priority::ALL[priority])
        },
    )
}

fn floats(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(any::<f32>(), len)
}

fn ids(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), len)
}

fn degraded<T: std::fmt::Debug>(
    value: impl Strategy<Value = T>,
) -> impl Strategy<Value = Degraded<T>> {
    (value, any::<bool>(), any::<u32>(), any::<u32>()).prop_map(
        |(value, degraded, shards_ok, shards_total)| Degraded {
            value,
            degraded,
            shards_ok,
            shards_total,
        },
    )
}

fn kv_request() -> impl Strategy<Value = KvRequest> {
    (0u8..3, ".{0,24}", proptest::collection::vec(any::<u8>(), 0..200)).prop_map(
        |(op, key, value)| match op {
            0 => KvRequest::Get { key },
            1 => KvRequest::Set { key, value },
            _ => KvRequest::Delete { key },
        },
    )
}

fn kv_response() -> impl Strategy<Value = KvResponse> {
    (0u8..4, proptest::collection::vec(any::<u8>(), 0..200), any::<bool>()).prop_map(
        |(op, value, existed)| match op {
            0 => KvResponse::Value(Some(value)),
            1 => KvResponse::Value(None),
            2 => KvResponse::Stored,
            _ => KvResponse::Deleted(existed),
        },
    )
}

// Every typed message a service sends is encoded in place into the
// connection's pending buffer; on the wire it is the frame its bytes,
// encoded first, made.
proptest! {
    #[test]
    fn hdsearch_frames_encode_in_place_as_copied(
        header in header(),
        vector in floats(0..80),
        candidates in ids(0..64),
        k: u32,
        neighbors in proptest::collection::vec((any::<u64>(), any::<f32>()), 0..24),
        degraded_neighbors in degraded(proptest::collection::vec((any::<u64>(), any::<f32>()), 0..24)),
    ) {
        let to_neighbors = |pairs: Vec<(u64, f32)>| -> Vec<Neighbor> {
            pairs.into_iter().map(|(id, distance)| Neighbor { id, distance }).collect()
        };
        typed_frame_matches(&header, &SearchQuery { vector: vector.clone(), k })?;
        let request = LeafSearchRequest { vector, candidates, k };
        typed_frame_matches(&header, &request)?;
        typed_frame_matches(&header, &LeafSearchResponse { neighbors: to_neighbors(neighbors) })?;
        let Degraded { value, degraded, shards_ok, shards_total } = degraded_neighbors;
        let merged = Degraded { value: to_neighbors(value), degraded, shards_ok, shards_total };
        typed_frame_matches(&header, &merged)?;
    }

    /// A mid-tier writes the shared part and then the leaf's own part of a
    /// leaf request into the frame, where the two used to be encoded into
    /// a payload's two segments: the frames agree, and the leaf decodes
    /// its request from them.
    #[test]
    fn shared_and_leaf_parts_encode_in_place_as_copied(
        header in header(),
        vector in floats(0..80),
        candidates in ids(0..64),
        k: u32,
    ) {
        let leaf = (candidates.clone(), k);
        let body = |buf: &mut BytesMut| {
            vector.encode(buf);
            leaf.encode(buf);
        };
        in_place_matches_copied(&header, body, &[&to_bytes(&vector), &to_bytes(&leaf)])?;
        let mut wire = Vec::new();
        header.encode_with_payload(&[&to_bytes(&vector), &to_bytes(&leaf)], &mut wire);
        let (frame, _) = Frame::parse(&Bytes::from(wire)).unwrap();
        let request: LeafSearchRequest = from_bytes(&frame.payload).unwrap();
        prop_assert_eq!(request.candidates, candidates);
        prop_assert_eq!(request.k, k);
        prop_assert_eq!(request.vector.len(), vector.len());
    }

    #[test]
    fn router_frames_encode_in_place_as_copied(
        header in header(),
        request in kv_request(),
        response in kv_response(),
    ) {
        typed_frame_matches(&header, &request)?;
        typed_frame_matches(&header, &response)?;
        // The mid-tier's leaf request: the query shared, `()` per leaf.
        let body = |buf: &mut BytesMut| {
            request.encode(buf);
            ().encode(buf);
        };
        in_place_matches_copied(&header, body, &[&to_bytes(&request), &to_bytes(&())])?;
    }

    #[test]
    fn setalgebra_frames_encode_in_place_as_copied(
        header in header(),
        terms in proptest::collection::vec(any::<u32>(), 0..16),
        docs in proptest::collection::vec(any::<u32>(), 0..300),
        merged in degraded(proptest::collection::vec(any::<u32>(), 0..300)),
    ) {
        typed_frame_matches(&header, &TermQuery { terms })?;
        typed_frame_matches(&header, &PostingList { docs })?;
        let Degraded { value, degraded, shards_ok, shards_total } = merged;
        let merged = Degraded { value: PostingList { docs: value }, degraded, shards_ok, shards_total };
        typed_frame_matches(&header, &merged)?;
    }

    #[test]
    fn recommend_frames_encode_in_place_as_copied(
        header in header(),
        user: u32,
        item: u32,
        rating: f32,
        neighbors: u32,
        merged in degraded(any::<f32>()),
    ) {
        typed_frame_matches(&header, &RatingQuery { user, item })?;
        typed_frame_matches(&header, &LeafRating { rating, neighbors })?;
        typed_frame_matches(&header, &merged)?;
    }
}

proptest! {
    #[test]
    fn u64_roundtrips(v: u64) {
        roundtrip(&v);
    }

    #[test]
    fn i64_roundtrips(v: i64) {
        roundtrip(&v);
    }

    #[test]
    fn f64_roundtrips_bitwise(v: f64) {
        let bytes = to_bytes(&v);
        let decoded: f64 = from_bytes(&bytes).unwrap();
        prop_assert_eq!(decoded.to_bits(), v.to_bits());
    }

    #[test]
    fn strings_roundtrip(s in ".*") {
        roundtrip(&s.to_string());
    }

    #[test]
    fn nested_containers_roundtrip(v in proptest::collection::vec(
        (any::<u32>(), proptest::collection::vec(any::<f32>(), 0..8)), 0..16)
    ) {
        let bytes = to_bytes(&v);
        let decoded: Vec<(u32, Vec<f32>)> = from_bytes(&bytes).unwrap();
        prop_assert_eq!(decoded.len(), v.len());
        for (a, b) in decoded.iter().zip(&v) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.len(), b.1.len());
            for (x, y) in a.1.iter().zip(&b.1) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn options_and_tuples_roundtrip(v: Option<(u8, i32, bool)>) {
        roundtrip(&v);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any byte soup must produce Ok or Err, never a panic/abort.
        let _ = from_bytes::<Vec<(u64, String)>>(&bytes);
        let _ = from_bytes::<Option<Vec<f32>>>(&bytes);
        let _ = from_bytes::<String>(&bytes);
        let _ = Frame::parse(&Bytes::from(bytes));
    }

    #[test]
    fn frames_roundtrip(request_id: u64, method: u32, payload in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let frame = Frame::request(request_id, method, payload);
        let bytes = Bytes::from(frame.to_bytes());
        let (parsed, rest) = Frame::parse(&bytes).unwrap();
        prop_assert_eq!(parsed, frame);
        prop_assert!(rest.is_empty());
    }

    #[test]
    fn parsed_payloads_alias_the_input_buffer(payload in proptest::collection::vec(any::<u8>(), 1..512)) {
        // The zero-copy contract: a parsed payload is a slice of the very
        // allocation it was parsed from, at the offset past the header —
        // no intermediate copy is ever made.
        let bytes = Bytes::from(Frame::request(3, 4, payload.clone()).to_bytes());
        let header_len = bytes.len() - payload.len();
        let (parsed, _) = Frame::parse(&bytes).unwrap();
        prop_assert_eq!(
            parsed.payload.as_ptr() as usize,
            bytes.as_ptr() as usize + header_len,
            "payload must alias the input buffer, not a copy"
        );
    }

    #[test]
    fn parsed_payloads_survive_source_drop(payload in proptest::collection::vec(any::<u8>(), 1..256)) {
        // The payload handle keeps the shared backing alive: dropping the
        // original buffer must not invalidate or corrupt the payload.
        let bytes = Bytes::from(Frame::request(5, 6, payload.clone()).to_bytes());
        let (parsed, rest) = Frame::parse(&bytes).unwrap();
        drop(bytes);
        drop(rest);
        prop_assert_eq!(&parsed.payload[..], &payload[..]);
    }

    #[test]
    fn reader_payloads_survive_buffer_reuse(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..128), 2..6)
    ) {
        // A RecvBuf refills its chunks across frames. Payloads handed out
        // for earlier frames must stay intact while later frames are read.
        let mut wire = Vec::new();
        for (i, payload) in payloads.iter().enumerate() {
            wire.extend(Frame::request(i as u64, 1, payload.clone()).to_bytes());
        }
        let (mut reader, mut wire) = (RecvBuf::default(), &wire[..]);
        let held: Vec<Bytes> = (0..payloads.len())
            .map(|_| reader.poll_frame(&mut wire).unwrap().unwrap().0.payload)
            .collect();
        for (held_payload, original) in held.iter().zip(&payloads) {
            prop_assert_eq!(&held_payload[..], &original[..]);
        }
    }

    #[test]
    fn frame_streams_reparse(frames in proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)), 1..8)
    ) {
        // Concatenated frames must parse back one by one without
        // desynchronizing.
        let mut stream = Vec::new();
        for (id, payload) in &frames {
            stream.extend(Frame::response(*id, 1, Status::Ok, payload.clone()).to_bytes());
        }
        let mut rest = Bytes::from(stream);
        for (id, payload) in &frames {
            let (frame, next) = Frame::parse(&rest).unwrap();
            prop_assert_eq!(frame.header.request_id, *id);
            prop_assert_eq!(&frame.payload[..], &payload[..]);
            rest = next;
        }
        prop_assert!(rest.is_empty());
    }

    #[test]
    fn truncated_frames_error_not_panic(payload in proptest::collection::vec(any::<u8>(), 0..128), cut in 0usize..160) {
        let bytes = Bytes::from(Frame::request(1, 2, payload).to_bytes());
        let cut = cut.min(bytes.len().saturating_sub(1));
        prop_assert!(Frame::parse(&bytes.slice(..cut)).is_err());
    }

    #[test]
    fn retired_magic_is_an_error_whatever_follows(tail in proptest::collection::vec(any::<u8>(), 0..256)) {
        // The 31-byte header that predates budgets opened with B5 53. It is
        // refused on the magic alone — `BadMagic`, not a length or checksum
        // error — so the bytes after it, which may declare any payload
        // length up to 4 GiB, are never used to size a buffer.
        let mut bytes = vec![0xB5, 0x53];
        bytes.extend(tail);
        prop_assert_eq!(Frame::parse(&Bytes::from(bytes.clone())).unwrap_err(), DecodeError::BadMagic);
        prop_assert!(RecvBuf::default().poll_frame(&mut &bytes[..]).is_err());
    }

    #[test]
    fn single_payload_bitflip_detected(payload in proptest::collection::vec(any::<u8>(), 1..128), flip_bit: u8) {
        let frame = Frame::request(9, 9, payload.clone());
        let mut bytes = frame.to_bytes();
        let header_len = bytes.len() - payload.len();
        let index = header_len + (usize::from(flip_bit) % payload.len());
        bytes[index] ^= 1 << (flip_bit % 8);
        // Either the checksum catches it, or (if we flipped a bit that the
        // decoder reads as structure) a structural error results. Parsing
        // must never succeed with wrong payload bytes.
        if let Ok((parsed, _)) = Frame::parse(&Bytes::from(bytes)) {
            prop_assert_ne!(&parsed.payload[..], &payload[..]);
        }
    }

    // Hostile `FrameKind::Batch` envelopes. The outer frame's checksum says
    // nothing about what a peer put inside, so each forged field must come
    // back as `Err` — a panic, or an allocation sized from the forged
    // number, would fail (or kill) the test run.

    #[test]
    fn forged_batch_member_count_is_an_error(payloads in member_payloads(0..6), forged: u32) {
        let (mut envelope, _) = batch_envelope(&payloads);
        prop_assume!(forged as usize != payloads.len());
        envelope[..COUNT_LEN].copy_from_slice(&forged.to_le_bytes());
        let holds = (envelope.len() - COUNT_LEN) / ENTRY_HEADER_LEN;
        let outcome = decode_batch(&Bytes::from(envelope));
        prop_assert!(outcome.is_err());
        if forged as usize > holds {
            // More members than the payload could hold, all the way to one
            // that overflows any allocation: refused on arithmetic alone.
            let refused = matches!(outcome, Err(DecodeError::LengthOverflow { .. }));
            prop_assert!(refused, "count {} where {} fit: {:?}", forged, holds, outcome);
        }
    }

    #[test]
    fn truncated_batch_member_table_is_an_error(payloads in member_payloads(1..6), cut: usize) {
        let (envelope, _) = batch_envelope(&payloads);
        let cut = cut % envelope.len();
        prop_assert!(decode_batch(&Bytes::from(envelope).slice(..cut)).is_err());
    }

    #[test]
    fn batch_member_length_past_the_payload_is_an_error(
        payloads in member_payloads(1..6),
        member: usize,
        excess: u32,
    ) {
        let (mut envelope, offsets) = batch_envelope(&payloads);
        let member = member % payloads.len();
        // The bytes that follow this member's header, and a length that
        // claims more of them than exist.
        let left = envelope.len() - offsets[member] - ENTRY_HEADER_LEN;
        let forged = (left as u32).saturating_add(excess.max(1));
        let len_at = offsets[member] + ENTRY_HEADER_LEN - 4;
        envelope[len_at..len_at + 4].copy_from_slice(&forged.to_le_bytes());
        let outcome = decode_batch(&Bytes::from(envelope));
        let ran_out = matches!(outcome, Err(DecodeError::UnexpectedEof { .. }));
        prop_assert!(ran_out, "length {} with {} bytes left: {:?}", forged, left, outcome);
    }
}

// A server reads each message as a view of the frame it arrived in; a
// client, and every test above, reads the owned form. The two are one
// generic type with one wire form, so they must read the same bytes the
// same way.

/// `bytes` decodes as the owned form `O` exactly when it decodes as the
/// view form `V`, with the same error when neither does, and the view
/// re-read as owned is the owned value.
fn view_agrees<O, V>(bytes: &[u8]) -> Result<(), TestCaseError>
where
    O: Encode + Decode + std::fmt::Debug,
    V: Encode + Decode + std::fmt::Debug,
{
    match (from_bytes::<O>(bytes), from_payload::<V>(Bytes::copy_from_slice(bytes))) {
        (Ok(owned), Ok(view)) => {
            let again: O = from_bytes(&to_bytes(&view)).expect("a view encodes as it decoded");
            // Compared as encodings: floats compare by bit pattern.
            prop_assert_eq!(to_bytes(&again), to_bytes(&owned));
        }
        (Err(owned), Err(view)) => prop_assert_eq!(owned, view),
        (owned, view) => prop_assert!(false, "owned {:?}, view {:?}", owned, view),
    }
    Ok(())
}

/// [`view_agrees`] on `owned`'s encoding and on every strict prefix of it,
/// each of which is refused, without a panic, as either form.
fn owned_and_view_agree<O, V>(owned: &O) -> Result<(), TestCaseError>
where
    O: Encode + Decode + std::fmt::Debug,
    V: Encode + Decode + std::fmt::Debug,
{
    let bytes = to_bytes(owned);
    view_agrees::<O, V>(&bytes)?;
    prop_assert_eq!(to_bytes(&from_bytes::<V>(&bytes).unwrap()), bytes.clone());
    for cut in 0..bytes.len() {
        prop_assert!(from_bytes::<V>(&bytes[..cut]).is_err(), "prefix of {} bytes", cut);
        view_agrees::<O, V>(&bytes[..cut])?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn views_decode_as_owned_messages_do(
        request in kv_request(),
        response in kv_response(),
        vector in floats(0..80),
        candidates in ids(0..64),
        k: u32,
        neighbors in degraded(proptest::collection::vec((any::<u64>(), any::<f32>()), 0..24)),
        terms in proptest::collection::vec(any::<u32>(), 0..16),
        docs in degraded(proptest::collection::vec(any::<u32>(), 0..64)),
    ) {
        owned_and_view_agree::<KvRequest, KvRequest<Text, Bytes>>(&request)?;
        owned_and_view_agree::<KvResponse, KvResponse<Bytes>>(&response)?;
        let query = SearchQuery { vector: vector.clone(), k };
        owned_and_view_agree::<SearchQuery, SearchQuery<Seq<f32>>>(&query)?;
        let request = LeafSearchRequest { vector, candidates, k };
        owned_and_view_agree::<LeafSearchRequest, LeafSearchRequest<Seq<f32>, Seq<u64>>>(&request)?;
        let Degraded { value, degraded, shards_ok, shards_total } = neighbors;
        let neighbors: Vec<Neighbor> =
            value.into_iter().map(|(id, distance)| Neighbor { id, distance }).collect();
        let response = LeafSearchResponse { neighbors: neighbors.clone() };
        owned_and_view_agree::<LeafSearchResponse, LeafSearchResponse<Seq<Neighbor>>>(&response)?;
        let merged = Degraded { value: neighbors, degraded, shards_ok, shards_total };
        owned_and_view_agree::<Degraded<Vec<Neighbor>>, Degraded<Seq<Neighbor>>>(&merged)?;
        owned_and_view_agree::<TermQuery, TermQuery<Seq<u32>>>(&TermQuery { terms })?;
        let Degraded { value, degraded, shards_ok, shards_total } = docs;
        let list = PostingList { docs: value };
        owned_and_view_agree::<PostingList, PostingList<Seq<u32>>>(&list)?;
        let merged = Degraded { value: list, degraded, shards_ok, shards_total };
        owned_and_view_agree::<Degraded<PostingList>, Degraded<PostingList<Seq<u32>>>>(&merged)?;
    }

    #[test]
    fn views_refuse_what_owned_messages_refuse(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        view_agrees::<KvRequest, KvRequest<Text, Bytes>>(&bytes)?;
        view_agrees::<KvResponse, KvResponse<Bytes>>(&bytes)?;
        view_agrees::<SearchQuery, SearchQuery<Seq<f32>>>(&bytes)?;
        view_agrees::<LeafSearchRequest, LeafSearchRequest<Seq<f32>, Seq<u64>>>(&bytes)?;
        view_agrees::<LeafSearchResponse, LeafSearchResponse<Seq<Neighbor>>>(&bytes)?;
        view_agrees::<Degraded<Vec<Neighbor>>, Degraded<Seq<Neighbor>>>(&bytes)?;
        view_agrees::<TermQuery, TermQuery<Seq<u32>>>(&bytes)?;
        view_agrees::<Degraded<PostingList>, Degraded<PostingList<Seq<u32>>>>(&bytes)?;
    }
}
