//! Wire buffers: the zero-copy plumbing under every connection.
//!
//! Three pieces keep payload bytes from being copied between the socket
//! and the service handler:
//!
//! * [`Payload`] — an outgoing message body as up to two [`Bytes`]
//!   segments (a shared prefix plus a per-request suffix). A mid-tier
//!   scatter encodes its shared request state **once** and hands every
//!   leaf a reference-counted clone of the same allocation; the per-leaf
//!   suffix rides in the second segment. Length and checksum are computed
//!   across the segment boundary, so the two are never joined in memory.
//! * [`RecvBuf`] — the frame reader of every connection, whichever runner
//!   drives it: each wake's bytes land in a chunk, every complete frame in
//!   the chunk is handed out as a [`Bytes`] slice of it, and the chunk is
//!   taken back for refilling once the last slice is dropped.
//! * [`ConnWriter`] — a thread-safe coalescing writer: what a loop thread
//!   queues while it has ready work leaves in one write before it waits,
//!   and frames queued while another thread is flushing ride out in that
//!   thread's write, shrinking the `sendmsg` column of the syscall profile.

use bytes::{Bytes, BytesMut};
use musuite_check::sync::MutexGuard;
use musuite_codec::frame::{FrameHeader, FramePrefix, HEADER_LEN, MAGIC};
use musuite_codec::{DecodeError, Frame};
use musuite_telemetry::clock::Clock;
use musuite_telemetry::counters::{OsOp, OsOpCounters};
use musuite_telemetry::netpoll::CoalesceStats;
use musuite_telemetry::sync::CountedMutex;
use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

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

/// Smallest chunk a connection reads into; an exchange of short messages
/// never outgrows it.
const MIN_CHUNK: usize = 1 << 10;
/// Largest chunk kept for refilling. A bigger frame gets a buffer of
/// exactly its size, freed with its payload.
const MAX_CHUNK: usize = 64 << 10;
/// Chunks with live payload slices a connection keeps a handle on, to take
/// back later. One frozen while this many are out is freed with its slices.
const MAX_LENT_CHUNKS: usize = 16;
/// A work item that took this long — about what a write costs, the peer's
/// wake-up included — saves nothing by holding its frames back: the loop
/// thread flushes before the next item. Shorter ones (a Router lookup, a
/// completion callback) batch as deep as the ready work goes. The clock is
/// read between items only, so a frame waits out the short items after it
/// and one of any length; see [`flush_outbox`].
pub const MAX_DEFER: Duration = Duration::from_micros(20);

fn invalid_data(e: DecodeError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// The validated prefix of the frame `bytes` opens with, once its header
/// is all there; a foreign protocol is refused from its magic alone.
fn front_prefix(bytes: &[u8]) -> io::Result<Option<FramePrefix>> {
    if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
        return Err(invalid_data(DecodeError::BadMagic));
    }
    if bytes.len() < HEADER_LEN {
        return Ok(None);
    }
    FramePrefix::parse(bytes).map(Some).map_err(invalid_data)
}

/// A connection's receive buffer: the one frame reader, driven by both
/// runners — a connection's own thread with a blocking `read`, a reactor
/// sweep with a non-blocking one.
///
/// Each wake reads whatever the socket holds into a **chunk**. Once the
/// chunk holds a complete frame it is frozen and every complete frame in
/// it is handed out as a [`Bytes`] slice of it — no copy between the
/// kernel and the service handler, and one `read` for all of them. A
/// trailing partial frame is carried into the next chunk. The buffer keeps
/// a handle on each frozen chunk and takes it back for refilling once no
/// slice of it is alive ([`Bytes::try_into_mut`]), so a connection in
/// steady state makes no allocator call per frame. A payload is therefore
/// never overwritten while anyone can still read it.
///
/// Chunks are sized from the frames seen: they start at 1 KiB and grow to
/// hold the largest frame so far, up to 64 KiB; a frame beyond that gets a
/// buffer of exactly its size. Every prefix is validated before anything
/// is reserved for its payload. Nothing is allocated until the first byte
/// arrives. Each `read` that returns data ticks the `recvmsg` analog; the
/// wait before it is the runner's to account.
#[derive(Debug, Default)]
pub struct RecvBuf {
    /// The chunk being read into; `fill[..filled]` opens a frame that is
    /// not complete yet. Empty (no allocation) while `ready` has bytes.
    fill: BytesMut,
    filled: usize,
    /// The frozen chunk being handed out; `ready[pos..end]` is received
    /// and not yet consumed.
    ready: Bytes,
    pos: usize,
    end: usize,
    /// Frozen chunks whose payload slices may still be alive.
    lent: Vec<Bytes>,
    /// Header and payload of the largest frame seen.
    largest_frame: usize,
    /// When the first byte of the frame at the front arrived, and when
    /// the latest `read` returned.
    front_rx_ns: u64,
    read_ns: u64,
    clock: Clock,
}

impl RecvBuf {
    /// Length of the chunks allocated now: a power of two that holds the
    /// largest frame seen, within [`MIN_CHUNK`] and [`MAX_CHUNK`].
    fn chunk_len(&self) -> usize {
        self.largest_frame.next_power_of_two().clamp(MIN_CHUNK, MAX_CHUNK)
    }

    /// Received bytes not yet handed out as a frame.
    fn unconsumed(&self) -> &[u8] {
        if self.pos < self.end {
            &self.ready[self.pos..self.end]
        } else {
            &self.fill[..self.filled]
        }
    }

    /// Returns `true` if [`RecvBuf::poll_frame`] will return without
    /// reading: a complete frame is buffered, or bytes that cannot be one.
    pub fn has_frame(&self) -> bool {
        let bytes = self.unconsumed();
        match front_prefix(bytes) {
            Ok(Some(prefix)) => bytes.len() >= HEADER_LEN + prefix.payload_len,
            Ok(None) => false,
            Err(_) => true,
        }
    }

    /// Returns `true` if part of a frame is buffered and the rest has not
    /// arrived: a wait that times out now has caught a stalled peer, not
    /// an idle connection.
    pub fn mid_frame(&self) -> bool {
        !self.unconsumed().is_empty() && !self.has_frame()
    }

    /// Returns the next complete frame with the monotonic timestamp at
    /// which its first byte arrived: a buffered one without touching
    /// `reader`, else `reader` is read until one is complete. `Ok(None)`
    /// means the read would block (a non-blocking socket) or timed out (a
    /// blocking one): what arrived stays buffered for the next call.
    ///
    /// # Errors
    ///
    /// `io::ErrorKind::UnexpectedEof` on a closed connection,
    /// `io::ErrorKind::InvalidData` on a malformed frame; other I/O errors
    /// propagate. After any error the connection must be dropped.
    pub fn poll_frame<R: Read>(&mut self, reader: &mut R) -> io::Result<Option<(Frame, u64)>> {
        loop {
            if let Some(frame) = self.next_ready()? {
                return Ok(Some(frame));
            }
            if !self.read_more(reader)? {
                return Ok(None);
            }
        }
    }

    /// Hands out the frame at the front of the frozen chunk, if complete.
    fn next_ready(&mut self) -> io::Result<Option<(Frame, u64)>> {
        let bytes = &self.ready[self.pos..self.end];
        let Some(prefix) = front_prefix(bytes)? else { return Ok(None) };
        let total = HEADER_LEN + prefix.payload_len;
        if bytes.len() < total {
            return Ok(None);
        }
        // An empty payload must not pin the chunk.
        let payload = match prefix.payload_len {
            0 => Bytes::new(),
            _ => self.ready.slice(self.pos + HEADER_LEN..self.pos + total),
        };
        self.pos += total;
        let rx_start_ns = std::mem::replace(&mut self.front_rx_ns, self.read_ns);
        let frame = prefix.check_payload(payload).map_err(invalid_data)?;
        Ok(Some((frame, rx_start_ns)))
    }

    /// One `read` into the filling chunk, which is frozen once it holds a
    /// complete frame. Returns `false` if the read found nothing.
    fn read_more<R: Read>(&mut self, reader: &mut R) -> io::Result<bool> {
        if self.fill.is_empty() {
            self.start_chunk();
        }
        if let Some(prefix) = front_prefix(&self.fill[..self.filled])? {
            let total = HEADER_LEN + prefix.payload_len;
            if total > self.fill.len() {
                self.outgrow(total);
            }
        }
        debug_assert!(self.filled < self.fill.len(), "a full chunk holds a frame, or was outgrown");
        let n = loop {
            match reader.read(&mut self.fill[self.filled..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => break n,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Ok(false)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        OsOpCounters::global().incr(OsOp::RecvMsg);
        self.read_ns = self.clock.now_ns();
        if self.filled == 0 {
            self.front_rx_ns = self.read_ns;
        }
        self.filled += n;
        if let Some(prefix) = front_prefix(&self.fill[..self.filled])? {
            if self.filled >= HEADER_LEN + prefix.payload_len {
                self.ready = std::mem::take(&mut self.fill).freeze();
                self.end = std::mem::take(&mut self.filled);
                self.pos = 0;
            }
        }
        Ok(true)
    }

    /// The frozen chunk has no complete frame left: moves its trailing
    /// partial frame to the front of a writable chunk — the same chunk,
    /// if every slice of it is gone already, as on a connection that
    /// carries one call at a time.
    fn start_chunk(&mut self) {
        let partial = std::mem::take(&mut self.pos)..std::mem::take(&mut self.end);
        self.filled = partial.len();
        let drained = match std::mem::take(&mut self.ready).try_into_mut() {
            Ok(mut own) if own.len() == self.chunk_len() => {
                own.copy_within(partial, 0);
                self.fill = own;
                return;
            }
            Ok(odd_sized) => odd_sized.freeze(),
            Err(shared) => shared,
        };
        self.fill = self.writable_chunk(self.filled);
        self.fill[..self.filled].copy_from_slice(&drained[partial]);
        if drained.len() == self.chunk_len() && self.lent.len() < MAX_LENT_CHUNKS {
            self.lent.push(drained);
        }
    }

    /// A lent chunk no slice of which is alive any more, else a new one:
    /// `chunk_len` bytes, or `at_least` if that is more.
    fn writable_chunk(&mut self, at_least: usize) -> BytesMut {
        let mut i = 0;
        while i < self.lent.len() {
            match std::mem::take(&mut self.lent[i]).try_into_mut() {
                // One from before the chunk length grew is let go.
                Ok(own) if own.len() == self.chunk_len() && own.len() >= at_least => {
                    self.lent.swap_remove(i);
                    return own;
                }
                Ok(_) => drop(self.lent.swap_remove(i)),
                Err(shared) => {
                    self.lent[i] = shared;
                    i += 1;
                }
            }
        }
        BytesMut::from(vec![0; self.chunk_len().max(at_least)])
    }

    /// The frame opening the filling chunk is `total` bytes, more than the
    /// chunk holds: sizes chunks to hold such a frame from now on, and
    /// continues this one in a chunk of the new size — or, beyond
    /// [`MAX_CHUNK`], in a buffer of exactly the frame's size.
    fn outgrow(&mut self, total: usize) {
        self.largest_frame = self.largest_frame.max(total);
        let mut bigger = BytesMut::from(vec![0; self.chunk_len().max(total)]);
        bigger[..self.filled].copy_from_slice(&self.fill[..self.filled]);
        self.fill = bigger;
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
    /// A write failed; the socket is shut down and further frames are refused.
    broken: bool,
}

/// Thread-safe, coalescing write half of a connection.
///
/// Any number of threads (workers completing responses, fan-out merge
/// callbacks, reactor sweeps shedding load) serialize frames into a shared
/// pending buffer under a short lock. A **loop thread** (inside a
/// `DeferScope`: a connection's runner, a sweeper, a dispatch worker)
/// only notes the writer in its outbox and flushes it once when it runs
/// out of ready work, or after an item that took [`MAX_DEFER`]: one
/// `write` for all a burst produced on the connection. Any other thread
/// flushes at once, as the *flusher*: it repeatedly takes the whole
/// pending batch and writes it outside the lock, so frames queued
/// meanwhile — deferred ones too — leave with it. [`CoalesceStats`] counts
/// frames vs. actual writes; the difference is syscalls saved.
///
/// Works on both blocking sockets (per-connection mode) and non-blocking
/// reactor-owned sockets: `WouldBlock` during a flush is retried with a
/// CPU yield until the kernel accepts the bytes. The first failed write
/// marks the connection broken and shuts the socket down, so its runner
/// fails every call in flight exactly once, whichever thread queued it.
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
    /// queues it for transmission. Returns once the frame is on the wire,
    /// queued behind an in-progress flush, or noted for the calling loop
    /// thread's next flush.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors observed by this thread's own flush, and
    /// refuses with `BrokenPipe` once any flush has failed. A frame that
    /// leaves in a later flush reports `Ok` even if that flush fails.
    pub fn write_parts(self: &Arc<Self>, header: &FrameHeader, parts: &[&[u8]]) -> io::Result<()> {
        self.enqueue(header, parts, false)
    }

    /// Fault-injection only: like [`ConnWriter::write_parts`] but flips
    /// one bit of the serialized frame after checksumming, so the receiver
    /// must reject it.
    pub fn write_parts_corrupted(
        self: &Arc<Self>,
        header: &FrameHeader,
        parts: &[&[u8]],
    ) -> io::Result<()> {
        self.enqueue(header, parts, true)
    }

    fn enqueue(
        self: &Arc<Self>,
        header: &FrameHeader,
        parts: &[&[u8]],
        corrupt: bool,
    ) -> io::Result<()> {
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
        if Outbox::defer(self) {
            return Ok(());
        }
        self.flush(st)
    }

    /// Writes out whatever is pending, unless another thread is doing so.
    fn flush<'a>(&'a self, mut st: MutexGuard<'a, WriteState>) -> io::Result<()> {
        if st.flushing || st.pending.is_empty() {
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
                // How callers whose queued frames are lost get to know.
                let _ = self.stream.shutdown(Shutdown::Both);
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

/// The calling thread's deferred writes: the writers it has queued frames
/// on since it last flushed, in storage that is reused.
struct Outbox {
    /// Inside a [`DeferScope`].
    deferring: bool,
    dirty: Vec<SharedWriter>,
    /// When the work item in progress began.
    item_start_ns: u64,
}

thread_local! {
    static OUTBOX: RefCell<Outbox> =
        const { RefCell::new(Outbox { deferring: false, dirty: Vec::new(), item_start_ns: 0 }) };
}

impl Outbox {
    /// Notes `writer` for the next flush; `false` (not a loop thread)
    /// tells the caller to flush now.
    fn defer(writer: &SharedWriter) -> bool {
        OUTBOX.with_borrow_mut(|outbox| {
            if outbox.deferring && !outbox.dirty.iter().any(|noted| Arc::ptr_eq(noted, writer)) {
                outbox.dirty.push(writer.clone());
            }
            outbox.deferring
        })
    }

    fn flush(&mut self) {
        for writer in self.dirty.drain(..) {
            // A failed flush has shut the socket down: its runner reports it.
            let _ = writer.flush(writer.state.lock());
        }
    }
}

/// Writes out every frame the calling thread has deferred. Whatever in
/// this crate blocks a thread — a queue about to park its consumer, a
/// synchronous call or gather about to wait — calls this first; so does a
/// [`Service`](crate::Service) handler before it waits on anything of its
/// own, or runs long with frames queued.
pub fn flush_outbox() {
    OUTBOX.with_borrow_mut(Outbox::flush);
}

/// Marks the calling thread as a loop that drains ready work: frames it
/// queues on any [`ConnWriter`] stay in its outbox until it flushes, which
/// it must whenever it is about to wait, and does on the way out.
pub(crate) struct DeferScope(());

impl DeferScope {
    pub(crate) fn enter() -> DeferScope {
        OUTBOX.with_borrow_mut(|outbox| outbox.deferring = true);
        DeferScope(())
    }

    /// Call before each work item: flushes if the item before it took
    /// [`MAX_DEFER`] or more.
    pub(crate) fn checkpoint(&self) {
        OUTBOX.with_borrow_mut(|outbox| {
            let mut now = Clock.now_ns();
            let short = now.saturating_sub(outbox.item_start_ns) < MAX_DEFER.as_nanos() as u64;
            if !short && !outbox.dirty.is_empty() {
                outbox.flush();
                // The write is not the next item's time.
                now = Clock.now_ns();
            }
            outbox.item_start_ns = now;
        });
    }
}

impl Drop for DeferScope {
    fn drop(&mut self) {
        OUTBOX.with_borrow_mut(|outbox| {
            outbox.flush();
            outbox.deferring = false;
        });
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
    use musuite_codec::frame::{FrameKind, MAX_FRAME_LEN};
    use musuite_codec::Status;
    use proptest::prelude::*;

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

    /// An in-memory peer: hands out `sizes[i]` bytes at the i-th read
    /// (cycling), with `stutter` reporting `WouldBlock` before each — what
    /// a sweep sees of a slow peer — and `at_end` once the data is out
    /// (`None`: the peer hung up).
    #[derive(Default)]
    struct Script {
        data: Vec<u8>,
        pos: usize,
        sizes: Vec<usize>,
        reads: usize,
        stutter: bool,
        ready: bool,
        at_end: Option<io::ErrorKind>,
    }

    impl Script {
        fn new(data: Vec<u8>, sizes: Vec<usize>) -> Script {
            Script { data, sizes, ..Script::default() }
        }

        /// All of `data` in one read, then `at_end`.
        fn burst(data: Vec<u8>, at_end: io::ErrorKind) -> Script {
            Script { at_end: Some(at_end), ..Script::new(data, vec![usize::MAX]) }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.data.len() {
                return self.at_end.map_or(Ok(0), |kind| Err(kind.into()));
            }
            if self.stutter && !std::mem::replace(&mut self.ready, false) {
                self.ready = true;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let size = self.sizes[self.reads % self.sizes.len()];
            self.reads += 1;
            let n = size.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Polls until the peer has nothing more: every frame, then how the
    /// stream ended (`None`: it would block).
    fn drain(buf: &mut RecvBuf, peer: &mut Script) -> (Vec<Frame>, Option<io::ErrorKind>) {
        let mut frames = Vec::new();
        loop {
            match buf.poll_frame(peer) {
                Ok(Some((frame, _))) => frames.push(frame),
                Ok(None) if peer.pos == peer.data.len() => return (frames, None),
                Ok(None) => {}
                Err(e) => return (frames, Some(e.kind())),
            }
        }
    }

    #[test]
    fn encoded_frames_roundtrip_through_the_buffer() {
        let mut wire = Frame::request(1, 7, b"first".to_vec()).to_bytes();
        // A two-segment payload goes on the wire without being joined.
        let payload = Payload::with_suffix(Bytes::from(vec![0xAA; 3]), vec![0xBB]);
        Frame::request(2, 8, Vec::new()).header.encode_with_payload(&payload.parts(), &mut wire);
        // Budget and priority ride in the header's tail.
        let third = Frame::response(1, 7, Status::Ok, Vec::new())
            .with_budget(5_000, musuite_codec::Priority::Critical);
        wire.extend(third.to_bytes());
        let mut buf = RecvBuf::default();
        let (frames, end) = drain(&mut buf, &mut Script::new(wire, vec![usize::MAX]));
        assert_eq!(end, Some(io::ErrorKind::UnexpectedEof), "stream exhausted");
        assert_eq!(frames[0].header.request_id, 1);
        assert_eq!(frames[0].payload, b"first");
        assert_eq!(frames[1].header.request_id, 2);
        assert_eq!(frames[1].payload, [0xAA, 0xAA, 0xAA, 0xBB]);
        assert_eq!(frames[2].header.kind, FrameKind::Response);
        assert_eq!(frames[2], third);
        assert_eq!(frames.len(), 3);
    }

    /// Frame `i` of a test stream: a payload of `len` bytes that no other
    /// index or length shares.
    fn numbered_frame(i: usize, len: usize) -> Frame {
        let payload: Vec<u8> = (0..len).map(|j| (i * 31 + j * 7 + len) as u8).collect();
        Frame::request(i as u64, 3, payload)
    }

    /// Payload lengths from empty to larger than a chunk.
    fn payload_len() -> impl Strategy<Value = usize> {
        (0u8..4, 0usize..3 * MIN_CHUNK).prop_map(|(class, len)| match class {
            0 => 0,
            1 => len % 64,
            2 => len % MIN_CHUNK,
            _ => MIN_CHUNK + len,
        })
    }

    proptest! {
        #[test]
        fn frames_are_the_same_however_the_bytes_arrive(
            lens in proptest::collection::vec(payload_len(), 1..12),
            sizes in proptest::collection::vec(1usize..2 * MIN_CHUNK, 1..6),
            stutter: bool,
            hold_every in 1usize..4,
        ) {
            let sent: Vec<Frame> =
                lens.iter().enumerate().map(|(i, &len)| numbered_frame(i, len)).collect();
            let wire: Vec<u8> = sent.iter().flat_map(Frame::to_bytes).collect();
            // One byte at a time, the generated split, everything at once.
            for sizes in [vec![1], sizes.clone(), vec![usize::MAX]] {
                let at_end = stutter.then_some(io::ErrorKind::WouldBlock);
                let mut peer = Script { stutter, at_end, ..Script::new(wire.clone(), sizes) };
                let mut buf = RecvBuf::default();
                // Every `hold_every`-th payload is held to the end; the rest
                // are dropped at once, so their chunks are refilled under
                // the held ones.
                let mut held = Vec::new();
                let mut got = 0;
                let end = loop {
                    match buf.poll_frame(&mut peer) {
                        Ok(Some((frame, _))) => {
                            prop_assert_eq!(&frame, &sent[got], "frame {} of {:?}", got, &lens);
                            if got % hold_every == 0 {
                                held.push((got, frame.payload));
                            }
                            got += 1;
                        }
                        Ok(None) if peer.pos == wire.len() => break None,
                        Ok(None) => {}
                        Err(e) => break Some(e.kind()),
                    }
                    prop_assert!(buf.lent.len() <= MAX_LENT_CHUNKS);
                };
                prop_assert_eq!(got, sent.len());
                prop_assert_eq!(end, if stutter { None } else { Some(io::ErrorKind::UnexpectedEof) });
                prop_assert!(!buf.mid_frame() && !buf.has_frame());
                for (i, payload) in held {
                    prop_assert_eq!(&payload, &sent[i].payload, "held payload {} was overwritten", i);
                }
            }
        }
    }

    #[test]
    fn chunks_are_refilled_once_their_payloads_are_dropped_and_never_before() {
        let frame = numbered_frame(1, 300);
        let mut buf = RecvBuf::default();
        let mut next = || {
            let mut peer = Script::burst(frame.to_bytes(), io::ErrorKind::WouldBlock);
            buf.poll_frame(&mut peer).unwrap().unwrap().0.payload
        };
        // One call at a time, each payload dropped before the next frame
        // arrives: every frame lands in the same allocation.
        let chunk = next().as_ptr();
        assert!((0..50).all(|_| next().as_ptr() == chunk));
        // More payloads outstanding than the buffer tracks chunks for.
        let held: Vec<Bytes> = (0..2 * MAX_LENT_CHUNKS).map(|_| next()).collect();
        let chunks: std::collections::HashSet<_> = held.iter().map(|p| p.as_ptr()).collect();
        assert_eq!(chunks.len(), held.len(), "a held payload's chunk is never refilled");
        assert!(held.iter().all(|payload| payload == &frame.payload));
        drop(held);
        // Once released, the tracked chunks serve the following frames.
        let later: Vec<Bytes> = (0..MAX_LENT_CHUNKS).map(|_| next()).collect();
        assert!(later.iter().all(|payload| chunks.contains(&payload.as_ptr())));
    }

    #[test]
    fn frames_read_together_are_handed_out_without_reading_again() {
        let mut wire = numbered_frame(0, 10).to_bytes();
        wire.extend(numbered_frame(1, 0).to_bytes());
        wire.extend(numbered_frame(2, 20).to_bytes());
        let cut = wire.len() - 5;
        let at_end = Some(io::ErrorKind::WouldBlock);
        let mut peer = Script { at_end, ..Script::new(wire, vec![cut, 5]) };
        let mut buf = RecvBuf::default();
        assert!(!buf.has_frame() && !buf.mid_frame());
        let (first, first_rx_ns) = buf.poll_frame(&mut peer).unwrap().unwrap();
        assert_eq!(first, numbered_frame(0, 10));
        // A sweep whose budget ends here leaves a frame behind: it must not
        // be mistaken for an idle, or a stalled, connection.
        assert!(buf.has_frame() && !buf.mid_frame());
        assert_eq!(buf.poll_frame(&mut peer).unwrap().unwrap().0, numbered_frame(1, 0));
        assert_eq!(peer.reads, 1, "both came out of the first read");
        assert!(!buf.has_frame() && buf.mid_frame(), "the third is cut short");
        let (third, third_rx_ns) = buf.poll_frame(&mut peer).unwrap().unwrap();
        assert_eq!(third, numbered_frame(2, 20));
        assert_eq!(peer.reads, 2);
        assert_eq!(third_rx_ns, first_rx_ns, "its first byte came with the first read");
        assert!(first_rx_ns <= Clock::new().now_ns());
        assert!(buf.poll_frame(&mut peer).unwrap().is_none());
        assert!(!buf.has_frame() && !buf.mid_frame());
    }

    #[test]
    fn read_timeout_is_idle_only_between_frames() {
        let bytes = Frame::request(5, 2, b"probe".to_vec()).to_bytes();
        for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            // One whole frame, then silence: the timeout finds no frame in flight.
            let mut peer = Script::burst(bytes.clone(), kind);
            let mut buf = RecvBuf::default();
            buf.poll_frame(&mut peer).unwrap().unwrap();
            assert!(buf.poll_frame(&mut peer).unwrap().is_none());
            assert!(!buf.mid_frame());
            // A peer that stalls inside the header, or inside the payload.
            for cut in [3, HEADER_LEN + 2] {
                let mut peer = Script::burst(bytes[..cut].to_vec(), kind);
                let mut buf = RecvBuf::default();
                assert!(buf.poll_frame(&mut peer).unwrap().is_none());
                assert!(buf.mid_frame(), "stalled {cut} bytes into a frame");
            }
        }
    }

    #[test]
    fn hostile_bytes_are_errors_and_reserve_nothing() {
        let kind_of = |bytes: &[u8], sizes: Vec<usize>| {
            let mut buf = RecvBuf::default();
            let (frames, end) = drain(&mut buf, &mut Script::new(bytes.to_vec(), sizes));
            assert!(frames.is_empty());
            assert!(buf.fill.len() <= MIN_CHUNK, "nothing may be reserved for a refused frame");
            end
        };
        assert_eq!(kind_of(b"", vec![1]), Some(io::ErrorKind::UnexpectedEof));
        // A flipped payload bit, and a flipped magic bit.
        let mut bytes = Frame::request(5, 2, b"x".to_vec()).to_bytes();
        *bytes.last_mut().unwrap() ^= 0xFF;
        assert_eq!(kind_of(&bytes, vec![usize::MAX]), Some(io::ErrorKind::InvalidData));
        let mut bytes = Frame::request(5, 2, Vec::new()).to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(kind_of(&bytes, vec![usize::MAX]), Some(io::ErrorKind::InvalidData));
        // The retired magic is refused from its two bytes alone.
        assert_eq!(kind_of(&[0xB5, 0x53], vec![1]), Some(io::ErrorKind::InvalidData));
        // A declared length over the limit is refused by the prefix check,
        // before anything is sized from it.
        let mut bytes = Frame::request(5, 2, Vec::new()).to_bytes();
        bytes[2..6].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        for sizes in [vec![1], vec![usize::MAX]] {
            assert_eq!(kind_of(&bytes, sizes), Some(io::ErrorKind::InvalidData));
        }
        // A stream that ends inside a frame.
        let bytes = numbered_frame(1, 2 * MIN_CHUNK).to_bytes();
        for cut in [1, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 1, bytes.len() - 1] {
            let mut buf = RecvBuf::default();
            let (frames, end) = drain(&mut buf, &mut Script::new(bytes[..cut].to_vec(), vec![700]));
            assert!(frames.is_empty());
            assert_eq!(end, Some(io::ErrorKind::UnexpectedEof), "cut at {cut}");
            assert!(buf.fill.len() <= 4 * MIN_CHUNK, "sized from the frame, not beyond it");
        }
    }

    #[test]
    fn a_frame_beyond_the_largest_chunk_gets_a_buffer_of_its_own_size() {
        let big = numbered_frame(7, MAX_CHUNK + 1000);
        let small = numbered_frame(8, 10);
        let mut wire = big.to_bytes();
        wire.extend(small.to_bytes());
        wire.extend(big.to_bytes());
        let mut buf = RecvBuf::default();
        let (frames, _) = drain(&mut buf, &mut Script::new(wire, vec![5000]));
        assert_eq!(frames, [big.clone(), small, big]);
        assert_eq!(buf.chunk_len(), MAX_CHUNK, "chunks kept for refilling stay bounded");
        assert!(buf.lent.iter().all(|chunk| chunk.len() <= MAX_CHUNK));
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
        let mut reader = RecvBuf::default();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..THREADS * PER_THREAD {
            let (frame, _) = reader.poll_frame(&mut &rx_side).unwrap().unwrap();
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
        let writer = Arc::new(ConnWriter::new(tx_side));
        let frame = Frame::request(3, 9, b"poisoned".to_vec());
        writer.write_parts_corrupted(&frame.header, &[&frame.payload]).unwrap();
        let err = RecvBuf::default().poll_frame(&mut &rx_side).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "checksum must catch the flip");
        // Empty payload: the flip lands in the header's last byte instead.
        let (tx_side, rx_side) = loopback_pair();
        let frame = Frame::request(4, 9, Vec::new());
        Arc::new(ConnWriter::new(tx_side)).write_parts_corrupted(&frame.header, &[]).unwrap();
        let err = RecvBuf::default().poll_frame(&mut &rx_side).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn broken_connection_refuses_further_frames() {
        let (tx_side, rx_side) = loopback_pair();
        let writer = Arc::new(ConnWriter::new(tx_side));
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
    use musuite_check::atomic::{AtomicBool, Ordering};
    use musuite_check::{thread, Checker};
    use std::sync::atomic::AtomicUsize;

    /// A chunk goes back to its connection from whichever thread drops the
    /// last payload slice. A handler reads and drops its payload while the
    /// connection's own thread goes on receiving: in every interleaving the
    /// handler sees the bytes it was handed, and the chunk behind them is
    /// refilled only after the handler has let go — which some schedules
    /// must reach and others must not.
    #[test]
    fn a_chunk_is_refilled_only_after_its_last_payload_is_dropped() {
        // Schedules that [did not refill the held chunk, did].
        let outcomes = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let tally = outcomes.clone();
        let report = Checker::new()
            .check(move || {
                let first = Frame::request(1, 1, vec![0xAA; 100]);
                let later = Frame::request(2, 1, vec![0x55; 100]);
                let mut buf = RecvBuf::default();
                let (frame, _) = buf.poll_frame(&mut &first.to_bytes()[..]).unwrap().unwrap();
                let held = frame.payload;
                let chunk = held.as_ptr();
                let released = Arc::new(AtomicBool::new(false));
                let handler = thread::spawn({
                    let released = released.clone();
                    move || {
                        assert_eq!(held, [0xAA; 100], "refilled while still held");
                        released.store(true, Ordering::Release);
                        drop(held);
                    }
                });
                let mut reused = false;
                for _ in 0..2 {
                    let (frame, _) = buf.poll_frame(&mut &later.to_bytes()[..]).unwrap().unwrap();
                    assert_eq!(frame, later);
                    if frame.payload.as_ptr() == chunk {
                        assert!(released.load(Ordering::Acquire), "refilled before its release");
                        reused = true;
                    }
                }
                handler.join().unwrap();
                tally[usize::from(reused)].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            })
            .expect("no schedule may refill a chunk under a live payload");
        assert!(report.iterations > 1, "release/refill orders must be explored");
        let reached = |n: &AtomicUsize| n.load(std::sync::atomic::Ordering::Relaxed) > 0;
        assert!(outcomes.iter().all(reached), "both orders must be reached");
    }

    /// A loop thread deferring two frames, another thread writing one at
    /// once, the flusher election between them: every frame is written
    /// exactly once, a thread's own in order, and none is left pending.
    /// One write for all three, two, and three must each be reached.
    #[test]
    fn deferred_and_immediate_frames_are_each_written_exactly_once() {
        fn send(writer: &SharedWriter, id: u64) {
            writer.write_parts(&Frame::request(id, 1, Vec::new()).header, &[]).unwrap();
        }
        let outcomes = Arc::new([const { AtomicUsize::new(0) }; 3]);
        let tally = outcomes.clone();
        Checker::new()
            .check(move || {
                let (tx_side, rx_side) = loopback_pair();
                let writer = Arc::new(ConnWriter::new(tx_side));
                let deferring = thread::spawn({
                    let writer = writer.clone();
                    move || {
                        let _scope = DeferScope::enter();
                        send(&writer, 1);
                        send(&writer, 2);
                    }
                });
                send(&writer, 3);
                deferring.join().unwrap();
                assert!(writer.state.lock().pending.is_empty(), "a frame was stranded");
                rx_side.set_nonblocking(true).unwrap();
                let mut reader = RecvBuf::default();
                let ids: Vec<u64> =
                    std::iter::from_fn(|| reader.poll_frame(&mut &rx_side).unwrap())
                        .map(|(frame, _)| frame.header.request_id)
                        .collect();
                assert!(matches!(ids[..], [1, 2, 3] | [1, 3, 2] | [3, 1, 2]), "{ids:?}");
                let writes = writer.stats.flushes() as usize;
                tally[writes - 1].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            })
            .expect("no schedule may lose, duplicate, reorder or strand a frame");
        let reached = |n: &AtomicUsize| n.load(std::sync::atomic::Ordering::Relaxed) > 0;
        assert!(outcomes.iter().all(reached), "every number of writes must be reached");
    }
}
