//! Pooled wire buffers: the zero-copy plumbing under every connection.
//!
//! Four pieces keep payload bytes from being copied between the socket
//! and the service handler:
//!
//! * [`Payload`] — an outgoing message body as up to two [`Bytes`]
//!   segments (a shared prefix plus a per-request suffix). A mid-tier
//!   scatter encodes its shared request state **once** and hands every
//!   leaf a reference-counted clone of the same allocation; the per-leaf
//!   suffix rides in the second segment. Length and checksum are computed
//!   across the segment boundary, so the two are never joined in memory.
//! * [`FrameReader`] — a blocking frame reader with a persistent
//!   [`BytesMut`]: the header lands in a stack buffer, the payload in
//!   pooled memory that is frozen into a [`Bytes`] and handed out without
//!   a copy.
//! * [`FrameAccumulator`] — the non-blocking counterpart of
//!   [`FrameReader`] for reactor-owned sockets: an incremental state
//!   machine that absorbs whatever bytes are available and yields complete
//!   frames, preserving the same pooled-buffer zero-copy path.
//! * [`ConnWriter`] — a thread-safe coalescing writer: frames queued while
//!   another thread is flushing the same connection ride out in that
//!   thread's single buffered write, shrinking the `sendmsg` column of the
//!   syscall-profile analog.

use bytes::{Bytes, BytesMut};
use musuite_check::sync::Mutex;
use musuite_codec::frame::{FrameHeader, FramePrefix, HEADER_LEN, MAGIC};
use musuite_codec::{DecodeError, Frame};
use musuite_telemetry::clock::Clock;
use musuite_telemetry::counters::{OsOp, OsOpCounters};
use musuite_telemetry::netpoll::CoalesceStats;
use musuite_telemetry::sync::CountedMutex;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Idle read buffers a server or reactor retains across connection churn;
/// beyond this, a closing connection's buffer is freed rather than pooled.
pub(crate) const MAX_IDLE_READ_BUFFERS: usize = 64;

/// A shared pool of reusable read buffers.
///
/// A server's pollers each need a payload buffer for the life of their
/// connection; with connection churn, allocating a fresh [`BytesMut`] per
/// connection leaks warmed-up capacity every time a client hangs up. The
/// pool keeps up to `max_idle` returned buffers (capacity intact) and
/// hands them to the next connection. `acquire` never blocks beyond the
/// free-list lock and never fails — an empty pool just allocates.
///
/// Invariant (model-checked): a buffer is owned by at most one
/// [`PooledBuf`] at a time; returning it on drop makes it available again.
///
/// # Examples
///
/// ```
/// use musuite_rpc::BufferPool;
///
/// let pool = BufferPool::new(4);
/// let mut buf = pool.acquire();
/// buf.extend_from_slice(b"scratch");
/// drop(buf); // returns (cleared) to the pool
/// assert_eq!(pool.idle(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

#[derive(Debug)]
struct PoolInner {
    free: Mutex<Vec<BytesMut>>,
    max_idle: usize,
}

impl BufferPool {
    /// Creates a pool retaining at most `max_idle` idle buffers; beyond
    /// that, returned buffers are simply freed.
    pub fn new(max_idle: usize) -> BufferPool {
        BufferPool { inner: Arc::new(PoolInner { free: Mutex::new(Vec::new()), max_idle }) }
    }

    /// Checks a buffer out of the pool, allocating if none is idle.
    pub fn acquire(&self) -> PooledBuf {
        let buf = self.inner.free.lock().pop().unwrap_or_default();
        PooledBuf { buf, pool: Some(self.inner.clone()) }
    }

    /// Number of idle buffers currently held.
    pub fn idle(&self) -> usize {
        self.inner.free.lock().len()
    }
}

/// A buffer checked out of a [`BufferPool`] (or standalone via
/// [`PooledBuf::unpooled`]). Dereferences to [`BytesMut`]; dropping it
/// clears the contents and returns the allocation to its pool.
#[derive(Debug)]
pub struct PooledBuf {
    buf: BytesMut,
    pool: Option<Arc<PoolInner>>,
}

impl PooledBuf {
    /// A buffer backed by no pool: dropping it frees the allocation. This
    /// is what clients use — one connection, no churn to amortize.
    pub fn unpooled() -> PooledBuf {
        PooledBuf { buf: BytesMut::new(), pool: None }
    }
}

impl Deref for PooledBuf {
    type Target = BytesMut;
    #[inline]
    fn deref(&self) -> &BytesMut {
        &self.buf
    }
}

impl DerefMut for PooledBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut BytesMut {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            let mut buf = std::mem::take(&mut self.buf);
            buf.clear();
            let mut free = pool.free.lock();
            if free.len() < pool.max_idle {
                free.push(buf);
            }
        }
    }
}

/// An outgoing message body: a shared head plus a per-request tail.
///
/// Both segments are cheap reference-counted handles. Converting a
/// `Vec<u8>` or [`Bytes`] produces a single-segment payload; a two-part
/// payload shares its head across sibling requests.
///
/// # Examples
///
/// ```
/// use musuite_rpc::Payload;
/// use bytes::Bytes;
///
/// let shared = Bytes::from(vec![1u8, 2, 3]);
/// let a = Payload::with_suffix(shared.clone(), vec![4u8]);
/// let b = Payload::with_suffix(shared, vec![5u8]);
/// assert_eq!(a.len(), 4);
/// assert_eq!(a.to_vec(), [1, 2, 3, 4]);
/// assert_eq!(b.to_vec(), [1, 2, 3, 5]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Payload {
    head: Bytes,
    tail: Bytes,
}

impl Payload {
    /// An empty payload.
    pub fn new() -> Payload {
        Payload::default()
    }

    /// A payload sharing `head` and appending an owned `tail`.
    ///
    /// The head's allocation is shared (reference-counted), not copied —
    /// this is how a fan-out encodes common request state once.
    pub fn with_suffix(head: Bytes, tail: impl Into<Bytes>) -> Payload {
        Payload { head, tail: tail.into() }
    }

    /// Total length in bytes across both segments.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Returns `true` if both segments are empty.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.tail.is_empty()
    }

    /// The payload as wire-order segments, for scatter-write APIs.
    pub fn parts(&self) -> [&[u8]; 2] {
        [&self.head, &self.tail]
    }

    /// Copies both segments into one contiguous vector (for diagnostics
    /// and tests; the hot path never joins them).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(&self.head);
        out.extend_from_slice(&self.tail);
        out
    }
}

impl From<Vec<u8>> for Payload {
    fn from(head: Vec<u8>) -> Payload {
        Payload { head: Bytes::from(head), tail: Bytes::new() }
    }
}

impl From<Bytes> for Payload {
    fn from(head: Bytes) -> Payload {
        Payload { head, tail: Bytes::new() }
    }
}

impl From<&'static [u8]> for Payload {
    fn from(head: &'static [u8]) -> Payload {
        Payload { head: Bytes::from_static(head), tail: Bytes::new() }
    }
}

/// Streaming frame reader with a pooled payload buffer.
///
/// Reads the fixed-size header into a stack array, then the payload into
/// a persistent [`BytesMut`] that is frozen and handed out as a [`Bytes`]
/// — the frame's payload is *never* copied after leaving the kernel: one
/// payload-sized buffer per frame, zero copies, and empty payloads touch
/// the allocator not at all.
#[derive(Debug)]
pub struct FrameReader<R> {
    reader: R,
    buf: PooledBuf,
    mid_frame: bool,
    clock: Clock,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `reader` with an unpooled payload buffer.
    pub fn new(reader: R) -> FrameReader<R> {
        FrameReader::with_buffer(reader, PooledBuf::unpooled())
    }

    /// Wraps `reader` with a payload buffer checked out of a
    /// [`BufferPool`]; when this reader is dropped the buffer (and its
    /// warmed-up capacity) goes back to the pool for the next connection.
    pub fn with_buffer(reader: R, buf: PooledBuf) -> FrameReader<R> {
        FrameReader { reader, buf, mid_frame: false, clock: Clock::new() }
    }

    /// A shared reference to the underlying reader.
    pub fn get_ref(&self) -> &R {
        &self.reader
    }

    /// Returns `true` if the last [`FrameReader::read_frame`] failed with
    /// part of a frame already received — a read timeout then means a
    /// stalled peer, not an idle connection.
    pub(crate) fn mid_frame(&self) -> bool {
        self.mid_frame
    }

    /// Reads exactly one frame (blocking) and returns it with the
    /// monotonic timestamp at which its first byte arrived.
    ///
    /// The first `read` is the readiness wait — the userspace edge of
    /// `epoll_pwait` + hardirq delivery — and keeps whatever header bytes
    /// arrived with the wakeup, so a frame costs one `read` for the header
    /// and one for the payload.
    ///
    /// # Errors
    ///
    /// `io::ErrorKind::UnexpectedEof` on a cleanly closed connection,
    /// `io::ErrorKind::InvalidData` on malformed frames; other I/O errors
    /// propagate (a read timeout set on the socket surfaces as
    /// `WouldBlock`/`TimedOut`).
    pub fn read_frame(&mut self) -> io::Result<(Frame, u64)> {
        let mut header = [0u8; HEADER_LEN];
        let filled = loop {
            match self.reader.read(&mut header) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        let rx_start_ns = self.clock.now_ns();
        self.mid_frame = true;
        self.reader.read_exact(&mut header[filled..])?;
        let prefix = FramePrefix::parse(&header).map_err(invalid_data)?;
        // One read_exact into pooled memory (none at all for an empty
        // payload), then the freeze.
        self.buf.resize(prefix.payload_len, 0);
        self.reader.read_exact(&mut self.buf[..])?;
        let frame = freeze_frame(prefix, &mut self.buf)?;
        self.mid_frame = false;
        Ok((frame, rx_start_ns))
    }
}

fn invalid_data(e: DecodeError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Turns a read buffer holding exactly `prefix`'s payload into the frame:
/// a zero-copy freeze — the `Bytes` handed to the service aliases the
/// pooled read buffer — checked against the prefix. An empty payload
/// never touches the allocator.
fn freeze_frame(prefix: FramePrefix, buf: &mut BytesMut) -> io::Result<Frame> {
    let payload = if prefix.payload_len == 0 {
        Bytes::new()
    } else {
        buf.split_to(prefix.payload_len).freeze()
    };
    prefix.check_payload(payload).map_err(invalid_data)
}

/// Incremental frame decoder for reactor-owned non-blocking sockets.
///
/// A reactor sweep calls [`FrameAccumulator::poll_frame`] on each
/// registered connection; the accumulator reads whatever bytes the kernel
/// has buffered and returns `Ok(None)` when the socket would block with a
/// frame still incomplete — the partial header/payload stays buffered and
/// the next sweep resumes exactly where this one stopped. Complete frames
/// take the same zero-copy path as [`FrameReader`]: the payload is read
/// into pooled memory and frozen into a [`Bytes`] without a copy.
///
/// Each data-returning `read` ticks the global `recvmsg` counter; probe
/// reads that return `WouldBlock` are *not* counted — they are the
/// reactor's stand-in for an epoll readiness check, accounted under the
/// sweep's `epoll_pwait`-class park instead.
#[derive(Debug)]
pub struct FrameAccumulator {
    header: [u8; HEADER_LEN],
    header_filled: usize,
    prefix: Option<FramePrefix>,
    payload_filled: usize,
    buf: PooledBuf,
    rx_start_ns: u64,
    clock: Clock,
}

impl FrameAccumulator {
    /// Creates an accumulator whose payloads fill `buf` (typically checked
    /// out of the reactor's [`BufferPool`]).
    pub fn new(buf: PooledBuf) -> FrameAccumulator {
        FrameAccumulator {
            header: [0u8; HEADER_LEN],
            header_filled: 0,
            prefix: None,
            payload_filled: 0,
            buf,
            rx_start_ns: 0,
            clock: Clock::new(),
        }
    }

    /// Returns `true` if a partially received frame is buffered — used by
    /// idle reaping to avoid dropping a connection mid-frame.
    pub fn mid_frame(&self) -> bool {
        self.header_filled > 0 || self.prefix.is_some()
    }

    /// Absorbs available bytes from `reader` and returns the next complete
    /// frame with the monotonic timestamp at which its first byte arrived,
    /// or `Ok(None)` if the socket has no complete frame buffered yet.
    ///
    /// # Errors
    ///
    /// `io::ErrorKind::UnexpectedEof` on a closed connection,
    /// `io::ErrorKind::InvalidData` on malformed frames; other I/O errors
    /// propagate. After any error the connection must be dropped — the
    /// accumulator's partial state is unrecoverable.
    pub fn poll_frame<R: Read>(&mut self, reader: &mut R) -> io::Result<Option<(Frame, u64)>> {
        let prefix = match self.prefix {
            Some(p) => p,
            None => {
                while self.header_filled < HEADER_LEN {
                    let first_byte = self.header_filled == 0;
                    match self.absorb(reader, first_byte, HEADER_LEN)? {
                        Some(n) => {
                            self.header_filled += n;
                            // A peer that is not speaking this protocol is
                            // dropped as soon as its magic is in, not after
                            // it has trickled in a whole header.
                            if self.header_filled >= 2 && self.header[..2] != MAGIC {
                                return Err(invalid_data(DecodeError::BadMagic));
                            }
                        }
                        None => return Ok(None),
                    }
                }
                let p = FramePrefix::parse(&self.header).map_err(invalid_data)?;
                self.buf.resize(p.payload_len, 0);
                self.payload_filled = 0;
                self.prefix = Some(p);
                p
            }
        };
        while self.payload_filled < prefix.payload_len {
            match self.absorb(reader, false, prefix.payload_len)? {
                Some(n) => self.payload_filled += n,
                None => return Ok(None),
            }
        }
        self.prefix = None;
        self.header_filled = 0;
        let frame = freeze_frame(prefix, &mut self.buf)?;
        Ok(Some((frame, self.rx_start_ns)))
    }

    /// One `read` into whichever region (header or payload) is filling.
    /// Returns `Ok(None)` on `WouldBlock`, `Ok(Some(n))` on progress.
    fn absorb<R: Read>(
        &mut self,
        reader: &mut R,
        first_byte: bool,
        limit: usize,
    ) -> io::Result<Option<usize>> {
        loop {
            let dst = if self.prefix.is_some() {
                &mut self.buf[self.payload_filled..limit]
            } else {
                &mut self.header[self.header_filled..limit]
            };
            match reader.read(dst) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    if first_byte {
                        self.rx_start_ns = self.clock.now_ns();
                    }
                    OsOpCounters::global().incr(OsOp::RecvMsg);
                    return Ok(Some(n));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// The write half of a connection as every holder shares it: responses
/// (or requests) from any thread serialize into one pending buffer and
/// leave in batched writes (see [`ConnWriter`]).
pub(crate) type SharedWriter = Arc<ConnWriter>;

#[derive(Debug)]
struct WriteState {
    /// Frames serialized and awaiting the wire.
    pending: BytesMut,
    /// Recycled batch buffer, swapped with `pending` each flush so the
    /// steady state allocates nothing.
    spare: BytesMut,
    /// A thread is currently writing this connection's batch; new frames
    /// appended to `pending` will ride its next iteration.
    flushing: bool,
    /// A write failed; the peer is gone and further frames are refused.
    broken: bool,
}

/// Thread-safe, coalescing write half of a connection.
///
/// Any number of threads (workers completing responses, fan-out merge
/// callbacks, reactor sweeps shedding load) serialize frames into a shared
/// pending buffer under a short lock. The first writer becomes the
/// *flusher*: it repeatedly takes the whole pending batch and writes it
/// outside the lock, so frames queued meanwhile leave in a single
/// `write_all` — one syscall for many responses. [`CoalesceStats`] counts
/// frames vs. actual writes; the difference is syscalls saved.
///
/// Works on both blocking sockets (per-connection mode) and non-blocking
/// reactor-owned sockets: `WouldBlock` during a flush is retried with a
/// CPU yield until the kernel accepts the bytes.
///
/// A failed write marks the connection broken; frames already accepted for
/// a batch that fails are lost, which matches the seed semantics — a send
/// failure means the client went away and nobody is left to tell.
#[derive(Debug)]
pub struct ConnWriter {
    stream: TcpStream,
    state: CountedMutex<WriteState>,
    stats: CoalesceStats,
}

impl ConnWriter {
    /// Wraps `stream` with private coalescing counters.
    pub fn new(stream: TcpStream) -> ConnWriter {
        ConnWriter::with_stats(stream, CoalesceStats::new())
    }

    /// Wraps `stream`, reporting into a shared [`CoalesceStats`] (a server
    /// aggregates all its connections into one bundle).
    pub fn with_stats(stream: TcpStream, stats: CoalesceStats) -> ConnWriter {
        ConnWriter {
            stream,
            state: CountedMutex::new(WriteState {
                pending: BytesMut::new(),
                spare: BytesMut::new(),
                flushing: false,
                broken: false,
            }),
            stats,
        }
    }

    /// Serializes `header` with a payload assembled from `parts` and
    /// queues it for transmission, flushing unless another thread already
    /// is. Returns once the frame is on the wire *or* safely queued behind
    /// an in-progress flush.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors observed by this thread's own flush; a frame
    /// accepted into another thread's batch reports `Ok` even if that
    /// batch later fails (the connection is then marked broken and
    /// subsequent writes refuse with `BrokenPipe`).
    pub fn write_parts(&self, header: &FrameHeader, parts: &[&[u8]]) -> io::Result<()> {
        self.enqueue(header, parts, false)
    }

    /// Fault-injection only: like [`ConnWriter::write_parts`] but flips
    /// one bit of the serialized frame after checksumming, so the receiver
    /// must reject it.
    pub fn write_parts_corrupted(&self, header: &FrameHeader, parts: &[&[u8]]) -> io::Result<()> {
        self.enqueue(header, parts, true)
    }

    fn enqueue(&self, header: &FrameHeader, parts: &[&[u8]], corrupt: bool) -> io::Result<()> {
        let mut st = self.state.lock();
        if st.broken {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        header.encode_with_payload(parts, &mut st.pending);
        if corrupt {
            let last = st.pending.len() - 1;
            st.pending[last] ^= 0x40;
        }
        self.stats.record_frame();
        if st.flushing {
            // Another thread owns the socket; our frame departs in its
            // next batch — a sendmsg saved. Two threads fighting for one
            // connection is the contention (HITM-analog) event the old
            // write lock, held across the syscall, used to tally — keep
            // tallying it so Fig. 19's load trend survives coalescing.
            musuite_telemetry::sync::record_contention_event();
            return Ok(());
        }
        st.flushing = true;
        loop {
            let mut batch = std::mem::take(&mut st.pending);
            st.pending = std::mem::take(&mut st.spare);
            drop(st);
            let result = self.flush_batch(&batch);
            batch.clear();
            st = self.state.lock();
            st.spare = batch;
            if let Err(e) = result {
                st.broken = true;
                st.flushing = false;
                st.pending.clear();
                return Err(e);
            }
            if st.pending.is_empty() {
                st.flushing = false;
                return Ok(());
            }
        }
    }

    /// Writes one batch outside the lock. Each kernel-accepted `write` is
    /// one flush (syscall); `WouldBlock` on a reactor-owned non-blocking
    /// socket is retried with a yield until the send buffer drains.
    fn flush_batch(&self, bytes: &[u8]) -> io::Result<()> {
        let mut stream = &self.stream;
        let mut written = 0;
        while written < bytes.len() {
            match stream.write(&bytes[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.stats.record_flush();
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    OsOpCounters::global().incr(OsOp::SchedYield);
                    musuite_check::thread::yield_now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Both ends of a fresh loopback connection, for this crate's tests.
#[cfg(test)]
pub(crate) fn loopback_pair() -> (TcpStream, TcpStream) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let a = TcpStream::connect(addr).unwrap();
    let (b, _) = listener.accept().unwrap();
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_codec::frame::FrameKind;
    use musuite_codec::Status;

    #[test]
    fn payload_conversions() {
        let from_vec = Payload::from(vec![1u8, 2]);
        assert_eq!(from_vec.len(), 2);
        assert!(!from_vec.is_empty());
        let empty = Payload::new();
        assert!(empty.is_empty());
        let from_bytes = Payload::from(Bytes::from(vec![3u8]));
        assert_eq!(from_bytes.to_vec(), [3]);
        let from_static = Payload::from(&b"hi"[..]);
        assert_eq!(from_static.to_vec(), b"hi");
    }

    #[test]
    fn payload_suffix_shares_head_allocation() {
        let shared = Bytes::from(vec![9u8; 32]);
        let base = shared.as_ptr();
        let a = Payload::with_suffix(shared.clone(), vec![1u8]);
        let b = Payload::with_suffix(shared, vec![2u8]);
        // Both payloads alias the same head allocation — no deep copy.
        assert_eq!(a.parts()[0].as_ptr(), base);
        assert_eq!(b.parts()[0].as_ptr(), base);
        assert_eq!(a.parts()[1], [1]);
        assert_eq!(b.parts()[1], [2]);
    }

    #[test]
    fn encoded_frames_roundtrip_through_reader() {
        let mut wire = Frame::request(1, 7, b"first".to_vec()).to_bytes();
        // A two-segment payload goes on the wire without being joined.
        let payload = Payload::with_suffix(Bytes::from(vec![0xAA; 3]), vec![0xBB]);
        Frame::request(2, 8, Vec::new()).header.encode_with_payload(&payload.parts(), &mut wire);
        wire.extend(Frame::response(1, 7, Status::Ok, Vec::new()).to_bytes());
        let mut reader = FrameReader::new(&wire[..]);
        let (first, rx_start_ns) = reader.read_frame().unwrap();
        assert!(rx_start_ns > 0, "first byte must be timestamped");
        assert_eq!(first.header.request_id, 1);
        assert_eq!(first.payload, b"first");
        let (second, _) = reader.read_frame().unwrap();
        assert_eq!(second.header.request_id, 2);
        assert_eq!(second.payload, [0xAA, 0xAA, 0xAA, 0xBB]);
        let (third, _) = reader.read_frame().unwrap();
        assert_eq!(third.header.kind, FrameKind::Response);
        assert!(third.payload.is_empty());
        assert!(reader.read_frame().is_err(), "stream exhausted");
    }

    /// Hands out `chunk` bytes per `read`, then reports `at_end`.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        at_end: io::ErrorKind,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.data.len() {
                return Err(self.at_end.into());
            }
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn reader_assembles_a_frame_whatever_the_wakeup_carried() {
        // Budget and priority ride in the header's tail: they must survive
        // however the header was split across reads.
        let frame = Frame::request(5, 2, b"probe".to_vec())
            .with_budget(5_000, musuite_codec::Priority::Critical);
        for chunk in [1, 7, HEADER_LEN, 4096] {
            let trickle =
                Trickle { data: frame.to_bytes(), pos: 0, chunk, at_end: io::ErrorKind::TimedOut };
            let (got, _) = FrameReader::new(trickle).read_frame().unwrap();
            assert_eq!(got, frame, "{chunk} bytes per read");
        }
    }

    #[test]
    fn read_timeout_is_idle_only_between_frames() {
        let bytes = Frame::request(5, 2, b"probe".to_vec()).to_bytes();
        for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            // One whole frame, then silence: the timeout finds no frame in flight.
            let mut reader =
                FrameReader::new(Trickle { data: bytes.clone(), pos: 0, chunk: 64, at_end: kind });
            reader.read_frame().unwrap();
            assert_eq!(reader.read_frame().unwrap_err().kind(), kind);
            assert!(!reader.mid_frame());
            // A peer that stalls inside the header, or inside the payload.
            for cut in [3, HEADER_LEN + 2] {
                let data = bytes[..cut].to_vec();
                let mut reader =
                    FrameReader::new(Trickle { data, pos: 0, chunk: 64, at_end: kind });
                assert_eq!(reader.read_frame().unwrap_err().kind(), kind);
                assert!(reader.mid_frame(), "stalled {cut} bytes into a frame");
            }
        }
    }

    #[test]
    fn reader_rejects_corruption() {
        let mut bytes = Frame::request(5, 2, b"x".to_vec()).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let err = FrameReader::new(&bytes[..]).read_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut bytes = Frame::request(5, 2, Vec::new()).to_bytes();
        bytes[0] ^= 0xFF;
        let err = FrameReader::new(&bytes[..]).read_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn reader_eof_on_empty_stream() {
        let err = FrameReader::new(&b""[..]).read_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}

#[cfg(test)]
mod accumulator_tests {
    use super::*;
    use musuite_codec::Status;

    /// Yields one byte per call, interleaving `WouldBlock` between bytes —
    /// the worst case a reactor sweep can see from a slow peer.
    struct Drip {
        data: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl Read for Drip {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            if !self.ready {
                self.ready = true;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.ready = false;
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn drip_fed_frame_assembles_across_polls() {
        let frame = Frame::request(42, 7, b"dripped payload".to_vec())
            .with_budget(123_456, musuite_codec::Priority::Sheddable);
        let mut drip = Drip { data: frame.to_bytes(), pos: 0, ready: false };
        let mut acc = FrameAccumulator::new(PooledBuf::unpooled());
        assert!(!acc.mid_frame());
        let mut polls = 0usize;
        let got = loop {
            polls += 1;
            if let Some((frame, rx_start)) = acc.poll_frame(&mut drip).unwrap() {
                assert!(rx_start > 0, "first byte must be timestamped");
                break frame;
            }
        };
        assert!(polls > 2, "a dripping peer must take many sweeps");
        assert_eq!(got, frame);
        assert!(!acc.mid_frame(), "state must reset after a complete frame");
    }

    #[test]
    fn mid_frame_reports_partial_state() {
        let bytes = Frame::request(1, 1, b"xyz".to_vec()).to_bytes();
        // Header plus one payload byte available, then the peer stalls.
        let mut drip = Drip { data: bytes[..HEADER_LEN + 1].to_vec(), pos: 0, ready: true };
        let mut acc = FrameAccumulator::new(PooledBuf::unpooled());
        for _ in 0..10_000 {
            assert!(acc.poll_frame(&mut drip).unwrap().is_none());
            if drip.pos >= drip.data.len() {
                break;
            }
        }
        assert!(acc.mid_frame(), "payload is incomplete");
    }

    #[test]
    fn back_to_back_frames_drain_in_order() {
        let mut wire = Frame::request(1, 5, b"first".to_vec()).to_bytes();
        wire.extend(Frame::response(2, 5, Status::Ok, Vec::new()).to_bytes());
        let mut drip = Drip { data: wire, pos: 0, ready: true };
        let mut acc = FrameAccumulator::new(PooledBuf::unpooled());
        let mut got = Vec::new();
        for _ in 0..10_000 {
            match acc.poll_frame(&mut drip).unwrap() {
                Some((frame, _)) => got.push(frame),
                None => {
                    if drip.pos >= drip.data.len() {
                        break;
                    }
                }
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, b"first");
        assert_eq!(got[1].header.request_id, 2);
    }

    #[test]
    fn eof_and_corruption_surface_as_errors() {
        let mut acc = FrameAccumulator::new(PooledBuf::unpooled());
        let err = acc.poll_frame(&mut &b""[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let mut bytes = Frame::request(5, 2, b"x".to_vec()).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut acc = FrameAccumulator::new(PooledBuf::unpooled());
        let err = acc.poll_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // The retired magic is refused from its two bytes alone.
        let mut acc = FrameAccumulator::new(PooledBuf::unpooled());
        let err = acc.poll_frame(&mut &[0xB5u8, 0x53][..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

#[cfg(test)]
mod conn_writer_tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn concurrent_writers_coalesce_without_corruption() {
        let (tx_side, rx_side) = loopback_pair();
        let stats = CoalesceStats::new();
        let writer = Arc::new(ConnWriter::with_stats(tx_side, stats.clone()));
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 25;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let w = writer.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let frame = Frame::request(t * PER_THREAD + i, 9, vec![t as u8; 64]);
                        w.write_parts(&frame.header, &[&frame.payload]).unwrap();
                    }
                })
            })
            .collect();
        let mut reader = FrameReader::new(rx_side);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..THREADS * PER_THREAD {
            let (frame, _) = reader.read_frame().unwrap();
            assert_eq!(frame.payload.len(), 64, "frames must not interleave");
            assert!(seen.insert(frame.header.request_id), "duplicate frame");
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stats.frames(), THREADS * PER_THREAD);
        assert!(stats.flushes() >= 1);
        assert_eq!(stats.saved(), stats.frames() - stats.flushes());
    }

    #[test]
    fn corrupted_variant_is_rejected_downstream() {
        let (tx_side, rx_side) = loopback_pair();
        let writer = ConnWriter::new(tx_side);
        let frame = Frame::request(3, 9, b"poisoned".to_vec());
        writer.write_parts_corrupted(&frame.header, &[&frame.payload]).unwrap();
        let err = FrameReader::new(rx_side).read_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "checksum must catch the flip");
        // Empty payload: the flip lands in the header's last byte instead.
        let (tx_side, rx_side) = loopback_pair();
        let frame = Frame::request(4, 9, Vec::new());
        ConnWriter::new(tx_side).write_parts_corrupted(&frame.header, &[]).unwrap();
        let err = FrameReader::new(rx_side).read_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn broken_connection_refuses_further_frames() {
        let (tx_side, rx_side) = loopback_pair();
        let writer = ConnWriter::new(tx_side);
        drop(rx_side);
        let frame = Frame::request(1, 1, vec![0u8; 4096]);
        let mut saw_error = false;
        for _ in 0..1_000 {
            if writer.write_parts(&frame.header, &[&frame.payload]).is_err() {
                saw_error = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if saw_error {
            let err = writer.write_parts(&frame.header, &[&frame.payload]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "broken flag must latch");
        }
    }
}

#[cfg(all(test, musuite_check))]
mod model_tests {
    use super::*;
    use musuite_check::{thread, Checker};
    use std::sync::Arc;

    /// Two holders acquire from the pool concurrently while buffers churn
    /// through release/reacquire: in every interleaving each holder gets an
    /// exclusive, cleared buffer — one holder's writes are never visible
    /// to the other.
    #[test]
    fn concurrent_acquire_never_aliases() {
        let report = Checker::new()
            .check(|| {
                let pool = BufferPool::new(4);
                let pool2 = pool.clone();
                let other = thread::spawn(move || {
                    let mut buf = pool2.acquire();
                    assert!(buf.is_empty(), "pooled buffer must arrive cleared");
                    buf.extend_from_slice(b"aaaa");
                    assert_eq!(&buf[..], b"aaaa", "another holder's bytes leaked in");
                    drop(buf); // returns to the pool
                    let buf = pool2.acquire();
                    assert!(buf.is_empty(), "reacquired buffer must arrive cleared");
                });
                let mut buf = pool.acquire();
                assert!(buf.is_empty(), "pooled buffer must arrive cleared");
                buf.extend_from_slice(b"bb");
                assert_eq!(&buf[..], b"bb", "another holder's bytes leaked in");
                drop(buf);
                other.join().unwrap();
                assert!(Arc::strong_count(&pool.inner) == 1);
                assert!(pool.idle() <= 2, "at most two buffers ever existed");
            })
            .expect("no schedule may alias or dirty a pooled buffer");
        assert!(report.iterations > 1, "acquire/release orders must be explored");
    }
}
