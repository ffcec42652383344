//! Length-prefixed RPC frame layer.
//!
//! Every message on a μSuite-rs connection is one frame:
//!
//! ```text
//! +-------+-------------+------+------------+--------+--------+----------+--------+----------+---------+
//! | magic | payload len | kind | request id | method | status | checksum | budget | priority | payload |
//! |  2 B  |     4 B     | 1 B  |    8 B     |  4 B   |  4 B   |   8 B    |  4 B   |   1 B    |  len B  |
//! +-------+-------------+------+------------+--------+--------+----------+--------+----------+---------+
//! ```
//!
//! The deadline budget is the caller's *remaining* time in microseconds
//! (`0` = no deadline); each hop re-encodes it minus its own elapsed time
//! so the budget decays toward the leaves. The priority byte carries the
//! [`Priority`] admission class. This is the only layout: the 31-byte
//! header that predates the budget and priority fields (magic `B5 53`) is
//! retired, and a frame that opens with it is rejected with
//! [`DecodeError::BadMagic`].
//!
//! All header integers are little-endian. The checksum is FNV-1a over the
//! payload; it guards against framing desynchronization on a reused
//! connection rather than network corruption (TCP already checksums).
//! Request ids multiplex many in-flight RPCs on one connection, which is
//! what lets the mid-tier issue asynchronous leaf requests with *explicit*
//! RPC state — the paper's "no association between an execution thread and
//! a particular RPC".
//!
//! Payloads are [`Bytes`] handles: [`Frame::parse`] slices the payload out
//! of the input buffer without copying, so a frame decoded from a
//! connection's receive chunk shares that chunk's allocation all the way
//! into the service handler.

use crate::error::DecodeError;
use crate::wire;
use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// Frame magic bytes ("μ" in CP437 spirit, then 'T': the retired
/// budget-less layout used 'S', so either side rejects the other loudly
/// with `BadMagic` instead of misframing).
pub const MAGIC: [u8; 2] = [0xB5, 0x54];

/// Serialized size of the header in bytes, excluding the payload.
pub const HEADER_LEN: usize = 2 + 4 + 1 + 8 + 4 + 4 + 8 + 4 + 1;

/// Maximum payload bytes accepted in one frame (16 MiB).
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Offsets of the two header fields written after the payload: its length
/// and its checksum.
const LEN_AT: usize = 2;
const CHECKSUM_AT: usize = 23;

/// A frame refused by [`FrameHeader::encode_in_place`]: its payload is
/// longer than [`MAX_FRAME_LEN`], which every receiver rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// Payload bytes the body wrote.
    pub len: usize,
}

impl fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte limit", self.len)
    }
}

impl std::error::Error for FrameTooLarge {}

/// An `InvalidInput` error carrying the refusal, so a writer's caller can
/// tell the one refused frame from a failed connection.
impl From<FrameTooLarge> for std::io::Error {
    fn from(refused: FrameTooLarge) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, refused)
    }
}

/// A growable byte buffer a frame is serialized into in place: written
/// through [`BufMut`], then patched, or cut back if the frame is refused.
pub trait FrameBuf: BufMut + AsRef<[u8]> + AsMut<[u8]> {
    /// Shortens the buffer to its first `len` bytes.
    fn truncate(&mut self, len: usize);
}

impl FrameBuf for Vec<u8> {
    fn truncate(&mut self, len: usize) {
        Vec::truncate(self, len);
    }
}

impl FrameBuf for BytesMut {
    fn truncate(&mut self, len: usize) {
        BytesMut::truncate(self, len);
    }
}

/// A frame being serialized at `start`: cut back off the buffer when this
/// drops, unless `keep` is set — on a refusal, and if the body unwinds.
struct Rollback<'a, B: FrameBuf> {
    buf: &'a mut B,
    start: usize,
    keep: bool,
}

impl<B: FrameBuf> Drop for Rollback<'_, B> {
    fn drop(&mut self) {
        if !self.keep {
            self.buf.truncate(self.start);
        }
    }
}

/// Frame direction/role discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// A request from a client to a server.
    Request = 0,
    /// A response from a server to a client.
    Response = 1,
    // 2 is reserved (a retired one-way notification) and fails to decode.
    /// Reserved: a retired multi-request envelope, whose payload is a
    /// [`crate::batch`] envelope of sub-requests, each with its own id,
    /// method, deadline budget, and priority. An RPC server ignores it.
    Batch = 3,
}

impl FrameKind {
    fn from_u8(value: u8) -> Result<FrameKind, DecodeError> {
        match value {
            0 => Ok(FrameKind::Request),
            1 => Ok(FrameKind::Response),
            3 => Ok(FrameKind::Batch),
            _ => Err(DecodeError::InvalidDiscriminant { value, context: "FrameKind" }),
        }
    }
}

/// Admission-control priority class carried on request frames.
///
/// Under overload the server sheds low classes first: each class is
/// admitted only while the server's concurrency demand is below that
/// class's fraction of the limit, so `Sheddable` traffic is rejected long
/// before `Critical` traffic sees any queueing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum Priority {
    /// Must-serve traffic: shed only when the server is fully saturated.
    Critical = 0,
    /// Default class for ordinary requests.
    #[default]
    Normal = 1,
    /// Best-effort traffic: first to be shed under load.
    Sheddable = 2,
}

impl Priority {
    pub(crate) fn from_u8(value: u8) -> Result<Priority, DecodeError> {
        match value {
            0 => Ok(Priority::Critical),
            1 => Ok(Priority::Normal),
            2 => Ok(Priority::Sheddable),
            _ => Err(DecodeError::InvalidDiscriminant { value, context: "Priority" }),
        }
    }

    /// Short stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Priority::Critical => "critical",
            Priority::Normal => "normal",
            Priority::Sheddable => "sheddable",
        }
    }

    /// All priority classes, highest first; reports iterate this.
    pub const ALL: [Priority; 3] = [Priority::Critical, Priority::Normal, Priority::Sheddable];
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// RPC completion status carried on response frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u32)]
pub enum Status {
    /// The handler completed successfully.
    #[default]
    Ok = 0,
    /// The method id was not registered at the server.
    UnknownMethod = 1,
    /// The handler failed to decode the request payload.
    BadRequest = 2,
    /// The handler raised an application error.
    AppError = 3,
    /// The server is shutting down or overloaded.
    Unavailable = 4,
    /// The request's deadline budget expired before the handler ran; the
    /// server dropped it without doing work.
    DeadlineExpired = 5,
}

impl Status {
    fn from_u32(value: u32) -> Result<Status, DecodeError> {
        match value {
            0 => Ok(Status::Ok),
            1 => Ok(Status::UnknownMethod),
            2 => Ok(Status::BadRequest),
            3 => Ok(Status::AppError),
            4 => Ok(Status::Unavailable),
            5 => Ok(Status::DeadlineExpired),
            _ => Err(DecodeError::InvalidDiscriminant {
                value: value.min(255) as u8,
                context: "Status",
            }),
        }
    }

    /// Returns `true` for [`Status::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Status::Ok)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Status::Ok => "ok",
            Status::UnknownMethod => "unknown method",
            Status::BadRequest => "bad request",
            Status::AppError => "application error",
            Status::Unavailable => "unavailable",
            Status::DeadlineExpired => "deadline expired",
        };
        f.write_str(s)
    }
}

/// Frame metadata preceding the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Request/response/batch discriminator.
    pub kind: FrameKind,
    /// Correlates a response with its in-flight request.
    pub request_id: u64,
    /// Identifies the service method being invoked.
    pub method: u32,
    /// Completion status (meaningful on responses; `Ok` on requests).
    pub status: Status,
    /// Remaining deadline budget in microseconds; `0` means the caller
    /// set no deadline. Each hop re-encodes the budget minus its own
    /// elapsed time, so a leaf observes only what is left of the
    /// front-end's original timeout.
    pub deadline_budget_us: u32,
    /// Admission priority class (meaningful on requests).
    pub priority: Priority,
}

impl FrameHeader {
    /// Builds a header with no deadline budget and [`Priority::Normal`].
    pub fn new(kind: FrameKind, request_id: u64, method: u32, status: Status) -> FrameHeader {
        FrameHeader {
            kind,
            request_id,
            method,
            status,
            deadline_budget_us: 0,
            priority: Priority::Normal,
        }
    }

    /// Returns a copy of this header carrying `budget_us` and `priority`.
    pub fn with_budget(&self, budget_us: u32, priority: Priority) -> FrameHeader {
        FrameHeader { deadline_budget_us: budget_us, priority, ..*self }
    }

    /// Serialized header length: always [`HEADER_LEN`].
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN
    }

    /// Serializes a complete frame onto the end of `buf` in place: this
    /// header, then whatever `body` appends as the payload, then the
    /// payload's length and FNV-1a checksum patched into the header. Every
    /// frame is serialized here, so length and checksum are computed in one
    /// place whatever writes the payload.
    ///
    /// # Errors
    ///
    /// Returns [`FrameTooLarge`] if `body` wrote more than
    /// [`MAX_FRAME_LEN`] bytes; `buf` is then cut back to where the frame
    /// began. It is also cut back if `body` panics, before the unwind
    /// leaves this call.
    pub fn encode_in_place<B: FrameBuf>(
        &self,
        buf: &mut B,
        body: impl FnOnce(&mut B),
    ) -> Result<(), FrameTooLarge> {
        let start = buf.as_ref().len();
        let mut frame = Rollback { buf, start, keep: false };
        let out = &mut *frame.buf;
        out.put_slice(&MAGIC);
        wire::put_u32_le(out, 0); // payload length, patched below
        out.put_u8(self.kind as u8);
        wire::put_u64_le(out, self.request_id);
        wire::put_u32_le(out, self.method);
        wire::put_u32_le(out, self.status as u32);
        wire::put_u64_le(out, 0); // checksum, patched below
        wire::put_u32_le(out, self.deadline_budget_us);
        out.put_u8(self.priority as u8);
        body(out);
        let bytes = &mut frame.buf.as_mut()[start..];
        let len = bytes.len() - HEADER_LEN;
        if len > MAX_FRAME_LEN {
            return Err(FrameTooLarge { len });
        }
        let checksum = wire::fnv1a(&bytes[HEADER_LEN..]);
        bytes[LEN_AT..LEN_AT + 4].copy_from_slice(&(len as u32).to_le_bytes());
        bytes[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&checksum.to_le_bytes());
        frame.keep = true;
        Ok(())
    }

    /// Serializes a complete frame into `buf`: this header followed by a
    /// payload assembled from `parts` in order, through
    /// [`FrameHeader::encode_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if the parts add up to more than [`MAX_FRAME_LEN`] bytes;
    /// [`FrameHeader::encode_in_place`] reports that instead.
    pub fn encode_with_payload<B: FrameBuf>(&self, parts: &[&[u8]], buf: &mut B) {
        let encoded = self.encode_in_place(buf, |buf| {
            for part in parts {
                buf.put_slice(part);
            }
        });
        if let Err(refused) = encoded {
            panic!("{refused}");
        }
    }
}

/// The frame preamble, parsed ahead of the payload.
///
/// Streaming readers parse this prefix as soon as [`HEADER_LEN`] bytes are
/// in — before sizing anything from [`FramePrefix::payload_len`] — and do
/// not validate again once the payload arrives (see
/// [`FramePrefix::check_payload`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramePrefix {
    /// The decoded frame header fields.
    pub header: FrameHeader,
    /// Declared payload length in bytes (validated `<=` [`MAX_FRAME_LEN`]).
    pub payload_len: usize,
    /// Declared FNV-1a checksum of the payload.
    pub checksum: u64,
}

impl FramePrefix {
    /// Parses and validates a complete frame header at the front of
    /// `bytes` (payload bytes may follow; they are ignored here).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on bad magic, a truncated header, an
    /// oversized declared length, or invalid kind/status/priority
    /// discriminants.
    pub fn parse(bytes: &[u8]) -> Result<FramePrefix, DecodeError> {
        if bytes.len() < 2 {
            return Err(DecodeError::UnexpectedEof { context: "frame magic" });
        }
        if bytes[..2] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(DecodeError::UnexpectedEof { context: "frame header" });
        }
        let rest = &bytes[2..];
        let (len, rest) = wire::get_u32_le(rest)?;
        let payload_len = len as usize;
        if payload_len > MAX_FRAME_LEN {
            return Err(DecodeError::LengthOverflow {
                declared: payload_len as u64,
                max: MAX_FRAME_LEN as u64,
            });
        }
        let (kind_raw, rest) =
            rest.split_first().ok_or(DecodeError::UnexpectedEof { context: "frame kind" })?;
        let kind = FrameKind::from_u8(*kind_raw)?;
        let (request_id, rest) = wire::get_u64_le(rest)?;
        let (method, rest) = wire::get_u32_le(rest)?;
        let (status_raw, rest) = wire::get_u32_le(rest)?;
        let status = Status::from_u32(status_raw)?;
        let (checksum, rest) = wire::get_u64_le(rest)?;
        let (deadline_budget_us, rest) = wire::get_u32_le(rest)?;
        let (prio_raw, _) =
            rest.split_first().ok_or(DecodeError::UnexpectedEof { context: "frame priority" })?;
        let priority = Priority::from_u8(*prio_raw)?;
        Ok(FramePrefix {
            header: FrameHeader { kind, request_id, method, status, deadline_budget_us, priority },
            payload_len,
            checksum,
        })
    }

    /// Verifies `payload` against the declared length and checksum,
    /// assembling the complete frame. `payload` is moved, not copied.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::ChecksumMismatch`] if the payload does not
    /// hash to the declared checksum, or
    /// [`DecodeError::UnexpectedEof`]/[`DecodeError::TrailingBytes`] if
    /// its length disagrees with the prefix.
    pub fn check_payload(&self, payload: Bytes) -> Result<Frame, DecodeError> {
        if payload.len() < self.payload_len {
            return Err(DecodeError::UnexpectedEof { context: "frame payload" });
        }
        if payload.len() > self.payload_len {
            return Err(DecodeError::TrailingBytes { count: payload.len() - self.payload_len });
        }
        if wire::fnv1a(&payload) != self.checksum {
            return Err(DecodeError::ChecksumMismatch);
        }
        Ok(Frame { header: self.header, payload })
    }
}

/// A complete frame: header plus opaque payload bytes.
///
/// The payload is a [`Bytes`] handle. Frames built by [`Frame::parse`]
/// alias the input buffer; frames built by constructors own whatever
/// allocation the caller converted into `Bytes` (a `Vec<u8>` converts
/// without copying).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame metadata.
    pub header: FrameHeader,
    /// Message body, encoded with [`crate::Encode`].
    pub payload: Bytes,
}

impl Frame {
    /// Builds a request frame.
    pub fn request(request_id: u64, method: u32, payload: impl Into<Bytes>) -> Frame {
        Frame {
            header: FrameHeader::new(FrameKind::Request, request_id, method, Status::Ok),
            payload: payload.into(),
        }
    }

    /// Builds a response frame.
    pub fn response(
        request_id: u64,
        method: u32,
        status: Status,
        payload: impl Into<Bytes>,
    ) -> Frame {
        Frame {
            header: FrameHeader::new(FrameKind::Response, request_id, method, status),
            payload: payload.into(),
        }
    }

    /// Returns this frame with a deadline budget and priority class.
    pub fn with_budget(mut self, budget_us: u32, priority: Priority) -> Frame {
        self.header = self.header.with_budget(budget_us, priority);
        self
    }

    /// Serializes the frame to a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.header.encoded_len() + self.payload.len());
        self.header.encode_with_payload(&[&self.payload], &mut buf);
        buf
    }

    /// Parses one frame from the front of `src`, returning it and the
    /// remaining input.
    ///
    /// The returned frame's payload is a zero-copy slice of `src`: it
    /// shares `src`'s allocation instead of copying into a fresh buffer,
    /// so handing the payload to a service handler costs a reference-count
    /// bump, not a memcpy.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation, bad magic, an oversized
    /// declared length, or a checksum mismatch.
    pub fn parse(src: &Bytes) -> Result<(Frame, Bytes), DecodeError> {
        let bytes: &[u8] = src;
        let prefix = FramePrefix::parse(bytes)?;
        let end = HEADER_LEN + prefix.payload_len;
        if bytes.len() < end {
            return Err(DecodeError::UnexpectedEof { context: "frame payload" });
        }
        let frame = prefix.check_payload(src.slice(HEADER_LEN..end))?;
        Ok((frame, src.slice(end..)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::request(77, 3, b"hello payload".to_vec())
    }

    #[test]
    fn roundtrip_bytes() {
        let frame = sample();
        let bytes = Bytes::from(frame.to_bytes());
        let (parsed, rest) = Frame::parse(&bytes).unwrap();
        assert_eq!(parsed, frame);
        assert!(rest.is_empty());
    }

    #[test]
    fn roundtrip_response_with_status() {
        let frame = Frame::response(9, 1, Status::AppError, vec![1, 2, 3]);
        let (parsed, _) = Frame::parse(&Bytes::from(frame.to_bytes())).unwrap();
        assert_eq!(parsed.header.status, Status::AppError);
        assert_eq!(parsed.header.kind, FrameKind::Response);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let frame = Frame::request(0, 0, Vec::new());
        let (parsed, _) = Frame::parse(&Bytes::from(frame.to_bytes())).unwrap();
        assert!(parsed.payload.is_empty());
    }

    #[test]
    fn two_frames_back_to_back() {
        let mut bytes = sample().to_bytes();
        bytes.extend(Frame::request(78, 4, b"second".to_vec()).to_bytes());
        let bytes = Bytes::from(bytes);
        let (first, rest) = Frame::parse(&bytes).unwrap();
        let (second, rest) = Frame::parse(&rest).unwrap();
        assert_eq!(first.header.request_id, 77);
        assert_eq!(second.header.request_id, 78);
        assert!(rest.is_empty());
    }

    #[test]
    fn parse_payload_aliases_input() {
        let frame = sample();
        let src = Bytes::from(frame.to_bytes());
        let (parsed, rest) = Frame::parse(&src).unwrap();
        // Zero-copy: the payload points into the source buffer rather
        // than a fresh allocation, and the remainder picks up after it.
        let base = src.as_ptr() as usize;
        assert_eq!(parsed.payload.as_ptr() as usize, base + HEADER_LEN);
        assert_eq!(parsed.payload, frame.payload);
        assert!(rest.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(Frame::parse(&Bytes::from(bytes)).unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert_eq!(Frame::parse(&Bytes::from(bytes)).unwrap_err(), DecodeError::ChecksumMismatch);
    }

    #[test]
    fn truncated_header_and_payload() {
        let bytes = Bytes::from(sample().to_bytes());
        assert!(matches!(
            Frame::parse(&bytes.slice(..HEADER_LEN - 1)),
            Err(DecodeError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            Frame::parse(&bytes.slice(..bytes.len() - 1)),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn oversized_declared_length_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[2..6].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(
            Frame::parse(&Bytes::from(bytes)),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn bad_kind_and_status_rejected() {
        // 2 is reserved: it was the retired one-way notification.
        for kind in [2, 9] {
            let mut bytes = sample().to_bytes();
            bytes[6] = kind; // kind byte
            assert!(matches!(
                Frame::parse(&Bytes::from(bytes)),
                Err(DecodeError::InvalidDiscriminant { context: "FrameKind", .. })
            ));
        }
        let mut bytes = sample().to_bytes();
        bytes[19..23].copy_from_slice(&99u32.to_le_bytes()); // status field
        assert!(matches!(
            Frame::parse(&Bytes::from(bytes)),
            Err(DecodeError::InvalidDiscriminant { context: "Status", .. })
        ));
    }

    #[test]
    fn encode_with_payload_parts_match_contiguous() {
        let frame = Frame::request(5, 2, b"abcdef".to_vec());
        let mut split = Vec::new();
        frame.header.encode_with_payload(&[b"abc", b"", b"def"], &mut split);
        assert_eq!(split, frame.to_bytes());
        let (parsed, _) = Frame::parse(&Bytes::from(split)).unwrap();
        assert_eq!(parsed, frame);
    }

    #[test]
    fn in_place_body_matches_copied_parts() {
        let header = FrameHeader::new(FrameKind::Response, 9, 4, Status::AppError)
            .with_budget(777, Priority::Sheddable);
        let mut copied = b"ahead".to_vec();
        header.encode_with_payload(&[b"abc", b"def"], &mut copied);
        let mut in_place = BytesMut::from(&b"ahead"[..]);
        header.encode_in_place(&mut in_place, |buf| buf.put_slice(b"abcdef")).unwrap();
        assert_eq!(in_place[..], copied[..]);
    }

    #[test]
    fn an_oversized_payload_is_refused_and_rolled_back() {
        let header = FrameHeader::new(FrameKind::Response, 1, 1, Status::Ok);
        let mut buf = b"earlier frame".to_vec();
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        let refused = header.encode_in_place(&mut buf, |buf| buf.put_slice(&big)).unwrap_err();
        assert_eq!(refused, FrameTooLarge { len: MAX_FRAME_LEN + 1 });
        assert_eq!(buf, b"earlier frame");
        // The limit itself is allowed.
        header.encode_in_place(&mut buf, |buf| buf.put_slice(&big[1..])).unwrap();
        assert_eq!(buf.len(), b"earlier frame".len() + HEADER_LEN + MAX_FRAME_LEN);
    }

    #[test]
    fn a_body_that_panics_is_rolled_back() {
        let header = FrameHeader::new(FrameKind::Request, 1, 1, Status::Ok);
        let mut buf = b"earlier frame".to_vec();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = header.encode_in_place(&mut buf, |buf| {
                buf.put_slice(b"half a payload");
                panic!("the body failed");
            });
        }));
        assert!(unwound.is_err());
        assert_eq!(buf, b"earlier frame");
    }

    #[test]
    fn status_display_and_is_ok() {
        assert!(Status::Ok.is_ok());
        assert!(!Status::AppError.is_ok());
        assert_eq!(Status::UnknownMethod.to_string(), "unknown method");
        assert_eq!(Status::DeadlineExpired.to_string(), "deadline expired");
    }

    #[test]
    fn header_len_matches_layout() {
        let frame = Frame::request(1, 2, Vec::new());
        assert_eq!(frame.to_bytes().len(), HEADER_LEN);
    }

    #[test]
    fn budget_and_priority_sit_at_the_end_of_the_header() {
        let frame = Frame::request(1, 2, Vec::new()).with_budget(1_000, Priority::Sheddable);
        let bytes = frame.to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(bytes[..2], MAGIC);
        assert_eq!(bytes[31..35], 1_000u32.to_le_bytes());
        assert_eq!(bytes[35], Priority::Sheddable as u8);
    }

    #[test]
    fn budget_and_priority_roundtrip() {
        let frame = Frame::request(42, 7, b"q".to_vec()).with_budget(250_000, Priority::Critical);
        let bytes = Bytes::from(frame.to_bytes());
        let (parsed, rest) = Frame::parse(&bytes).unwrap();
        assert_eq!(parsed.header.deadline_budget_us, 250_000);
        assert_eq!(parsed.header.priority, Priority::Critical);
        assert_eq!(parsed, frame);
        assert!(rest.is_empty());
    }

    #[test]
    fn retired_magic_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[..2].copy_from_slice(&[0xB5, 0x53]);
        assert_eq!(Frame::parse(&Bytes::from(bytes)).unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn bad_priority_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[HEADER_LEN - 1] = 7; // priority byte
        assert!(matches!(
            Frame::parse(&Bytes::from(bytes)),
            Err(DecodeError::InvalidDiscriminant { context: "Priority", .. })
        ));
    }

    #[test]
    fn priority_names_and_order() {
        assert_eq!(Priority::Critical.to_string(), "critical");
        assert_eq!(Priority::default(), Priority::Normal);
        assert!(Priority::Critical < Priority::Normal);
        assert!(Priority::Normal < Priority::Sheddable);
        assert_eq!(Priority::ALL.len(), 3);
    }

    #[test]
    fn priority_saturates_budget() {
        let header = FrameHeader::new(FrameKind::Request, 1, 2, Status::Ok)
            .with_budget(u32::MAX, Priority::Critical);
        assert_eq!(header.encoded_len(), HEADER_LEN);
        assert_eq!(header.deadline_budget_us, u32::MAX);
    }
}
