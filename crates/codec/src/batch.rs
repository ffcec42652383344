//! Multi-request batch envelope carried by [`FrameKind::Batch`] frames.
//!
//! One outer frame amortizes the per-message costs the DeathStarBench RPC
//! studies identify — header bytes, checksum passes, socket writes, and
//! receiver wakeups — across several logical requests. The envelope is
//! the outer frame's payload:
//!
//! ```text
//! +-------+----------------------------------------------------------+
//! | count | entry 0 | entry 1 | …                                    |
//! |  4 B  |                                                          |
//! +-------+----------------------------------------------------------+
//! ```
//!
//! where each entry is
//!
//! ```text
//! +------------+--------+-----------------+----------+---------+---------+
//! | request id | method | deadline budget | priority | pay len | payload |
//! |    8 B     |  4 B   |       4 B       |   1 B    |   4 B   |  len B  |
//! +------------+--------+-----------------+----------+---------+---------+
//! ```
//!
//! Every sub-request keeps its *own* deadline budget and priority class —
//! merging requests into one frame must not collapse their admission or
//! expiry bookkeeping, so the per-request budget and priority move from
//! the frame header into the entry. All integers are little-endian, matching
//! the frame header. The outer frame's own request id and method are
//! unused (conventionally zero); responses to the sub-requests travel as
//! ordinary [`FrameKind::Response`] frames correlated by entry id, so the
//! response path (and its coalescing writer) is unchanged.
//!
//! Single-request streams are untouched: `Batch` is a new frame
//! kind, so decoders that predate it reject batch frames loudly with an
//! invalid-discriminant error instead of misinterpreting them.
//!
//! [`FrameKind::Batch`]: crate::FrameKind::Batch

use crate::error::DecodeError;
use crate::frame::{Frame, FrameHeader, FrameKind, Priority, Status, MAX_FRAME_LEN};
use crate::wire;
use bytes::{BufMut, Bytes};

/// Fixed-width byte length of one entry header (id + method + budget +
/// priority + payload length), excluding the payload itself.
pub const ENTRY_HEADER_LEN: usize = 8 + 4 + 4 + 1 + 4;

/// Byte length of the envelope's leading sub-request count.
pub const COUNT_LEN: usize = 4;

/// One sub-request inside a batch envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEntry {
    /// Correlates this sub-request's eventual response frame.
    pub request_id: u64,
    /// The service method this sub-request invokes.
    pub method: u32,
    /// Remaining deadline budget in microseconds (`0` = no deadline),
    /// decaying per hop exactly like a frame header's budget.
    pub deadline_budget_us: u32,
    /// Admission priority class of this sub-request.
    pub priority: Priority,
    /// The sub-request's encoded body.
    pub payload: Bytes,
}

impl BatchEntry {
    /// Builds an entry with no deadline budget and [`Priority::Normal`].
    pub fn new(request_id: u64, method: u32, payload: impl Into<Bytes>) -> BatchEntry {
        BatchEntry {
            request_id,
            method,
            deadline_budget_us: 0,
            priority: Priority::Normal,
            payload: payload.into(),
        }
    }

    /// Returns this entry carrying `budget_us` and `priority`.
    pub fn with_budget(mut self, budget_us: u32, priority: Priority) -> BatchEntry {
        self.deadline_budget_us = budget_us;
        self.priority = priority;
        self
    }

    /// Serializes this entry's fixed-width header (everything but the
    /// payload bytes) into a stack scratch, for writers that assemble
    /// the envelope from parts without joining payloads first.
    pub fn header_bytes(&self) -> [u8; ENTRY_HEADER_LEN] {
        self.header_bytes_for_len(self.payload.len())
    }

    /// As [`BatchEntry::header_bytes`], but declaring `payload_len`
    /// bytes of payload — for writers whose payload is scattered across
    /// parts not yet joined into this entry's `payload` field.
    pub fn header_bytes_for_len(&self, payload_len: usize) -> [u8; ENTRY_HEADER_LEN] {
        debug_assert!(payload_len <= MAX_FRAME_LEN, "batch entry payload exceeds MAX_FRAME_LEN");
        let mut out = [0u8; ENTRY_HEADER_LEN];
        out[0..8].copy_from_slice(&self.request_id.to_le_bytes());
        out[8..12].copy_from_slice(&self.method.to_le_bytes());
        out[12..16].copy_from_slice(&self.deadline_budget_us.to_le_bytes());
        out[16] = self.priority as u8;
        out[17..21].copy_from_slice(&(payload_len as u32).to_le_bytes());
        out
    }
}

/// Serialized envelope length for `entries`.
pub fn encoded_len(entries: &[BatchEntry]) -> usize {
    COUNT_LEN + entries.iter().map(|e| ENTRY_HEADER_LEN + e.payload.len()).sum::<usize>()
}

/// Serializes `entries` as a batch envelope into `buf`.
pub fn encode_batch<B: BufMut>(entries: &[BatchEntry], buf: &mut B) {
    wire::put_u32_le(buf, entries.len() as u32);
    for entry in entries {
        buf.put_slice(&entry.header_bytes());
        buf.put_slice(&entry.payload);
    }
}

/// Builds a complete [`FrameKind::Batch`] frame around `entries`. The
/// outer header carries no budget of its own: per-request budgets and
/// priorities live in the entries.
pub fn batch_frame(entries: &[BatchEntry]) -> Frame {
    let mut payload = Vec::with_capacity(encoded_len(entries));
    encode_batch(entries, &mut payload);
    Frame {
        header: FrameHeader::new(FrameKind::Batch, 0, 0, Status::Ok),
        payload: Bytes::from(payload),
    }
}

/// Parses a batch envelope out of a [`FrameKind::Batch`] frame's payload.
///
/// Entry payloads are zero-copy slices of `src`, so sub-requests decoded
/// from a pooled connection read buffer share that buffer's allocation
/// exactly like single-request frames do.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, a declared entry length that
/// overruns the envelope, an invalid priority discriminant, or trailing
/// bytes after the last entry.
pub fn decode_batch(src: &Bytes) -> Result<Vec<BatchEntry>, DecodeError> {
    let bytes: &[u8] = src;
    if bytes.len() < COUNT_LEN {
        return Err(DecodeError::UnexpectedEof { context: "batch count" });
    }
    let count = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    // An entry is at least its fixed header, so `count` is bounded by the
    // envelope length; a forged count cannot force a huge allocation.
    if count > bytes.len().saturating_sub(COUNT_LEN) / ENTRY_HEADER_LEN {
        return Err(DecodeError::LengthOverflow {
            declared: count as u64,
            max: (bytes.len().saturating_sub(COUNT_LEN) / ENTRY_HEADER_LEN) as u64,
        });
    }
    let mut entries = Vec::with_capacity(count);
    let mut offset = COUNT_LEN;
    for _ in 0..count {
        if bytes.len() < offset + ENTRY_HEADER_LEN {
            return Err(DecodeError::UnexpectedEof { context: "batch entry header" });
        }
        let header = &bytes[offset..offset + ENTRY_HEADER_LEN];
        let request_id = u64::from_le_bytes(header[0..8].try_into().expect("8-byte slice")); // lint: allow(expect): slice length is fixed above
        let method = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice")); // lint: allow(expect): slice length is fixed above
        let budget = u32::from_le_bytes(header[12..16].try_into().expect("4-byte slice")); // lint: allow(expect): slice length is fixed above
        let priority = Priority::from_u8(header[16])?;
        let payload_len = u32::from_le_bytes(header[17..21].try_into().expect("4-byte slice")) // lint: allow(expect): slice length is fixed above
            as usize;
        offset += ENTRY_HEADER_LEN;
        // Compared against what is left, so a forged length cannot wrap
        // the sum on a 32-bit target.
        if bytes.len() - offset < payload_len {
            return Err(DecodeError::UnexpectedEof { context: "batch entry payload" });
        }
        entries.push(BatchEntry {
            request_id,
            method,
            deadline_budget_us: budget,
            priority,
            payload: src.slice(offset..offset + payload_len),
        });
        offset += payload_len;
    }
    if offset != bytes.len() {
        return Err(DecodeError::TrailingBytes { count: bytes.len() - offset });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<BatchEntry> {
        vec![
            BatchEntry::new(10, 1, b"alpha".to_vec()),
            BatchEntry::new(11, 2, b"bb".to_vec()).with_budget(250_000, Priority::Critical),
            BatchEntry::new(12, 1, Vec::new()).with_budget(0, Priority::Sheddable),
        ]
    }

    #[test]
    fn envelope_roundtrips() {
        let entries = sample_entries();
        let mut buf = Vec::new();
        encode_batch(&entries, &mut buf);
        assert_eq!(buf.len(), encoded_len(&entries));
        let decoded = decode_batch(&Bytes::from(buf)).unwrap();
        assert_eq!(decoded, entries);
    }

    #[test]
    fn frame_roundtrips_through_wire() {
        let entries = sample_entries();
        let frame = batch_frame(&entries);
        assert_eq!(frame.header.kind, FrameKind::Batch);
        let bytes = Bytes::from(frame.to_bytes());
        let (parsed, rest) = Frame::parse(&bytes).unwrap();
        assert!(rest.is_empty());
        assert_eq!(parsed.header.kind, FrameKind::Batch);
        let decoded = decode_batch(&parsed.payload).unwrap();
        assert_eq!(decoded, entries);
    }

    #[test]
    fn entries_alias_source_buffer() {
        let entries = sample_entries();
        let mut buf = Vec::new();
        encode_batch(&entries, &mut buf);
        let src = Bytes::from(buf);
        let decoded = decode_batch(&src).unwrap();
        let base = src.as_ptr() as usize;
        let first = decoded[0].payload.as_ptr() as usize;
        assert_eq!(first, base + COUNT_LEN + ENTRY_HEADER_LEN, "payloads must not be copied");
    }

    #[test]
    fn empty_batch_roundtrips() {
        let mut buf = Vec::new();
        encode_batch(&[], &mut buf);
        assert_eq!(decode_batch(&Bytes::from(buf)).unwrap(), Vec::new());
    }

    #[test]
    fn per_entry_budget_and_priority_survive() {
        let entries = sample_entries();
        let decoded = decode_batch(&Bytes::from({
            let mut b = Vec::new();
            encode_batch(&entries, &mut b);
            b
        }))
        .unwrap();
        assert_eq!(decoded[1].deadline_budget_us, 250_000);
        assert_eq!(decoded[1].priority, Priority::Critical);
        assert_eq!(decoded[2].priority, Priority::Sheddable);
        assert_eq!(decoded[0].priority, Priority::Normal);
    }

    // The three hostile-envelope cases below are also proptests in
    // `tests/codec_properties.rs`; they live here as plain tests so the
    // Miri job walks the decoder's slicing under each of them.

    #[test]
    fn truncated_member_table_rejected() {
        let mut buf = Vec::new();
        encode_batch(&sample_entries(), &mut buf);
        let full = Bytes::from(buf);
        for cut in 0..full.len() {
            assert!(
                matches!(
                    decode_batch(&full.slice(..cut)),
                    Err(DecodeError::UnexpectedEof { .. })
                        | Err(DecodeError::LengthOverflow { .. })
                ),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn forged_count_rejected_without_allocation() {
        let mut buf = Vec::new();
        encode_batch(&[BatchEntry::new(1, 1, vec![0u8; 100])], &mut buf);
        // More members than the payload could hold, up to one that would
        // overflow any allocation: refused on arithmetic alone, before
        // anything is sized from the count.
        let holds = ((buf.len() - COUNT_LEN) / ENTRY_HEADER_LEN) as u32;
        for forged in [holds + 1, u32::MAX / 2, u32::MAX] {
            buf[0..4].copy_from_slice(&forged.to_le_bytes());
            assert!(
                matches!(
                    decode_batch(&Bytes::from(buf.clone())),
                    Err(DecodeError::LengthOverflow { .. })
                ),
                "count {forged}"
            );
        }
        // A count the payload could hold, but does not: the walk runs off
        // the end of the member table.
        for forged in 2..=holds {
            buf[0..4].copy_from_slice(&forged.to_le_bytes());
            assert!(
                matches!(
                    decode_batch(&Bytes::from(buf.clone())),
                    Err(DecodeError::UnexpectedEof { .. })
                ),
                "count {forged}"
            );
        }
    }

    #[test]
    fn member_length_past_the_payload_rejected() {
        let entries = sample_entries();
        let mut buf = Vec::new();
        encode_batch(&entries, &mut buf);
        // The last member's length field, declaring one byte more than is
        // left, and then as much as the field can say.
        let len_at = buf.len() - entries[2].payload.len() - 4;
        for forged in [entries[2].payload.len() as u32 + 1, u32::MAX] {
            buf[len_at..len_at + 4].copy_from_slice(&forged.to_le_bytes());
            assert!(
                matches!(
                    decode_batch(&Bytes::from(buf.clone())),
                    Err(DecodeError::UnexpectedEof { context: "batch entry payload" })
                ),
                "length {forged}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        encode_batch(&sample_entries(), &mut buf);
        buf.push(0xAB);
        assert!(matches!(
            decode_batch(&Bytes::from(buf)),
            Err(DecodeError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn bad_priority_rejected() {
        let mut buf = Vec::new();
        encode_batch(&[BatchEntry::new(1, 1, b"x".to_vec())], &mut buf);
        buf[COUNT_LEN + 16] = 9; // priority byte of entry 0
        assert!(matches!(
            decode_batch(&Bytes::from(buf)),
            Err(DecodeError::InvalidDiscriminant { context: "Priority", .. })
        ));
    }

    #[test]
    fn header_bytes_for_len_matches_parts_assembly() {
        // A writer that sends prefix+suffix payload parts must produce
        // the same bytes as joining them first.
        let prefix = b"shared-".to_vec();
        let suffix = b"tail".to_vec();
        let joined: Vec<u8> = prefix.iter().chain(suffix.iter()).copied().collect();
        let entry = BatchEntry::new(7, 3, joined).with_budget(10, Priority::Critical);
        let mut whole = Vec::new();
        encode_batch(std::slice::from_ref(&entry), &mut whole);
        let mut parts = Vec::new();
        wire::put_u32_le(&mut parts, 1);
        parts.extend_from_slice(&entry.header_bytes_for_len(prefix.len() + suffix.len()));
        parts.extend_from_slice(&prefix);
        parts.extend_from_slice(&suffix);
        assert_eq!(parts, whole);
    }

    #[test]
    fn single_request_streams_decode_unchanged() {
        // A plain and a budgeted single-request frame followed by a batch
        // frame on one stream: the single frames parse exactly as before.
        let plain = Frame::request(1, 1, b"one".to_vec());
        let budgeted = Frame::request(2, 1, b"two".to_vec()).with_budget(5_000, Priority::Critical);
        let batch = batch_frame(&[BatchEntry::new(3, 1, b"three".to_vec())]);
        let mut stream = plain.to_bytes();
        stream.extend(budgeted.to_bytes());
        stream.extend(batch.to_bytes());
        let stream = Bytes::from(stream);
        let (a, rest) = Frame::parse(&stream).unwrap();
        let (b, rest) = Frame::parse(&rest).unwrap();
        let (c, rest) = Frame::parse(&rest).unwrap();
        assert!(rest.is_empty());
        assert_eq!(a, plain);
        assert_eq!(b, budgeted);
        assert_eq!(c.header.kind, FrameKind::Batch);
        assert_eq!(decode_batch(&c.payload).unwrap()[0].request_id, 3);
    }
}
