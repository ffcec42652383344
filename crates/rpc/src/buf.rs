//! Wire buffers: the zero-copy plumbing under every connection.
//!
//! Three pieces keep payload bytes from being copied between the socket
//! and the service handler:
//!
//! * [`Body`] — what an outgoing frame's payload is made from: a typed
//!   message's encoder, which serializes it straight into the connection's
//!   pending buffer, or bytes already encoded ([`Bytes`], `Vec<u8>`),
//!   copied there.
//! * [`RecvBuf`] — the frame reader of every connection, whichever runner
//!   drives it: each wake's bytes land in a chunk, every complete frame in
//!   the chunk is handed out as a [`Bytes`] slice of it, and the chunk is
//!   taken back for refilling once the last slice is dropped.
//! * [`ConnWriter`] — a thread-safe coalescing writer: every frame is
//!   serialized in place into its pending buffer; what a loop thread
//!   queues while it has ready work leaves in one write before it waits,
//!   and frames queued while another thread is flushing ride out in that
//!   thread's write, shrinking the `sendmsg` column of the syscall profile.

use bytes::{Bytes, BytesMut};
use musuite_check::sync::MutexGuard;
use musuite_codec::frame::{FrameHeader, FramePrefix, HEADER_LEN, MAGIC};
use musuite_codec::{DecodeError, Frame, FrameTooLarge};
use musuite_telemetry::clock::Clock;
use musuite_telemetry::counters::{OsOp, OsOpCounters};
use musuite_telemetry::netpoll::{CoalesceEvent, CoalesceStats};
use musuite_telemetry::sync::CountedMutex;
use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

/// What an outgoing frame's payload is made from: a body is serialized
/// straight into the connection's pending buffer ([`Body::encode_into`]).
/// Any `FnOnce(&mut BytesMut)` is a body: an encoder that appends a typed
/// message, as `|buf| request.encode(buf)`. Bytes already encoded, a
/// [`Bytes`] or a `Vec<u8>`, are one too: they are copied there.
pub trait Body {
    /// Appends the payload's bytes to `buf`.
    fn encode_into(self, buf: &mut BytesMut);
}

impl<F: FnOnce(&mut BytesMut)> Body for F {
    fn encode_into(self, buf: &mut BytesMut) {
        self(buf);
    }
}

impl Body for Bytes {
    fn encode_into(self, buf: &mut BytesMut) {
        buf.put_slice(&self);
    }
}

impl Body for Vec<u8> {
    fn encode_into(self, buf: &mut BytesMut) {
        buf.put_slice(&self);
    }
}

/// Smallest chunk a connection reads into: a page. A loaded connection's
/// wake finds a backlog of frames, and a read that fills its chunk leaves
/// the rest in the socket: the runner then holds a partial frame, waits
/// again and reads again. At 1 KiB that happened in 44 % of a saturated
/// Router's reads; a page takes the backlog in one.
const MIN_CHUNK: usize = 4 << 10;
/// Largest chunk kept for refilling. A bigger frame gets a buffer of
/// exactly its size, freed with its payload.
const MAX_CHUNK: usize = 64 << 10;
/// Bytes of chunks with live payload slices a connection keeps a handle
/// on, to take back later: 16 of the largest. A bound on bytes, not on
/// chunks, so a connection of small chunks tracks every one its calls in
/// flight pin (a leaf connection of the closed loop pins more than 16).
/// One frozen past it is freed with its slices.
const MAX_LENT_BYTES: usize = 16 * MAX_CHUNK;
/// Frames a loop thread holds before it writes them whatever work is
/// ready: without it a thread that never runs dry — a saturated handler
/// that does not declare itself long — would never write. A count, so it
/// is the same on any host; see [`flush_outbox`].
pub const MAX_HELD_FRAMES: usize = 64;

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
/// Chunks are sized from the frames seen: they start at a page, 4 KiB,
/// which holds the backlog a loaded connection's wake finds, and grow to
/// hold the largest frame so far, up to 64 KiB; a frame beyond that gets a
/// buffer of exactly its size. The chunks kept for refilling are bounded
/// by bytes, 1 MiB. Every prefix is validated before anything
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
        // No lent chunk is longer than `chunk_len`, which only grows.
        let lent_bytes = (self.lent.len() + 1) * self.chunk_len();
        if drained.len() == self.chunk_len() && lent_bytes <= MAX_LENT_BYTES {
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
/// out of ready work, before a handler that runs long, or once it holds
/// [`MAX_HELD_FRAMES`]: one `write` for all a burst produced on the
/// connection. Any other thread flushes at once, as the *flusher*: it
/// repeatedly takes the whole pending batch and writes it outside the
/// lock, so frames queued meanwhile — deferred ones too — leave with it.
/// [`CoalesceStats`] counts frames vs. actual writes; the difference is
/// syscalls saved.
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
    stats: Arc<CoalesceStats>,
}

impl ConnWriter {
    /// Wraps `stream` with private coalescing counters.
    pub fn new(stream: TcpStream) -> ConnWriter {
        ConnWriter::with_stats(stream, Arc::default())
    }

    /// Wraps `stream`, reporting into a shared [`CoalesceStats`] (a server
    /// aggregates all its connections into one bundle).
    pub fn with_stats(stream: TcpStream, stats: Arc<CoalesceStats>) -> ConnWriter {
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

    /// Serializes a frame with `header` straight into the pending buffer,
    /// its payload appended there by `body`, and queues it for
    /// transmission. Returns once the frame is on the wire, queued behind
    /// an in-progress flush, or noted for the calling loop thread's next
    /// flush.
    ///
    /// `body` runs under the writer's lock. If it panics, the frame is cut
    /// back off the pending buffer before the lock is released, so the
    /// frames queued around it still parse.
    ///
    /// # Errors
    ///
    /// Refuses a payload over [`MAX_FRAME_LEN`](musuite_codec::MAX_FRAME_LEN)
    /// with `InvalidInput` carrying [`FrameTooLarge`] (see [`too_large`]):
    /// nothing of it is queued, and the connection carries on. Propagates
    /// I/O errors observed by this thread's own flush, and refuses with
    /// `BrokenPipe` once any flush has failed. A frame that leaves in a
    /// later flush reports `Ok` even if that flush fails.
    pub fn write_with(
        self: &Arc<Self>,
        header: &FrameHeader,
        body: impl FnOnce(&mut BytesMut),
    ) -> io::Result<()> {
        self.enqueue(|pending| Ok(header.encode_in_place(pending, body)?))
    }

    /// Queues `frame`, serialized already (a fault plan's delayed or
    /// corrupted frame), as [`ConnWriter::write_with`] queues one it
    /// serializes.
    pub(crate) fn write_frame(self: &Arc<Self>, frame: &[u8]) -> io::Result<()> {
        self.enqueue(|pending| {
            pending.put_slice(frame);
            Ok(())
        })
    }

    /// Cuts the connection off as a failed flush does: the writer refuses
    /// further frames, what is pending is dropped, and the socket is shut
    /// down, so its runner fails every call in flight.
    pub(crate) fn cut(&self) {
        self.break_off(&mut self.state.lock());
    }

    fn break_off(&self, st: &mut WriteState) {
        st.broken = true;
        st.pending.clear();
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// The one enqueue path: `serialize` appends one frame to the pending
    /// buffer, which is then queued.
    fn enqueue(
        self: &Arc<Self>,
        serialize: impl FnOnce(&mut BytesMut) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut st = self.state.lock();
        if st.broken {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        serialize(&mut st.pending)?;
        self.stats.incr(CoalesceEvent::Frame);
        if st.flushing {
            // Another thread owns the socket; our frame departs in its
            // next batch — a sendmsg saved. Two threads fighting for one
            // connection is the contention (HITM-analog) event the old
            // write lock, held across the syscall, used to tally — keep
            // tallying it so Fig. 19's load trend survives coalescing.
            musuite_telemetry::sync::record_contention_event();
            return Ok(());
        }
        Outbox::defer(self, st)
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
                st.flushing = false;
                // How callers whose queued frames are lost get to know.
                self.break_off(&mut st);
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
                    self.stats.incr(CoalesceEvent::Flush);
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

/// Returns `true` if `error` is a [`ConnWriter`]'s refusal of a frame
/// whose payload is over the frame size limit: that one frame was not
/// sent, and the connection is fine.
pub fn too_large(error: &io::Error) -> bool {
    error.get_ref().is_some_and(|inner| inner.is::<FrameTooLarge>())
}

/// The calling thread's deferred writes: the writers it has queued frames
/// on since it last flushed, in storage that is reused.
struct Outbox {
    /// Inside a [`DeferScope`].
    deferring: bool,
    dirty: Vec<SharedWriter>,
    /// Frames noted since the last flush.
    held: usize,
}

thread_local! {
    static OUTBOX: RefCell<Outbox> =
        const { RefCell::new(Outbox { deferring: false, dirty: Vec::new(), held: 0 }) };
}

impl Outbox {
    /// Notes `writer`, whose frame `st` has just taken, for the next flush,
    /// and flushes once that makes [`MAX_HELD_FRAMES`]. A thread that is
    /// not a loop writes the frame at once.
    fn defer<'a>(writer: &'a SharedWriter, st: MutexGuard<'a, WriteState>) -> io::Result<()> {
        let full = OUTBOX.with_borrow_mut(|outbox| {
            if !outbox.deferring {
                return None;
            }
            if !outbox.dirty.iter().any(|noted| Arc::ptr_eq(noted, writer)) {
                outbox.dirty.push(writer.clone());
            }
            outbox.held += 1;
            Some(outbox.held >= MAX_HELD_FRAMES)
        });
        let Some(full) = full else { return writer.flush(st) };
        // Unlocked first: the flush locks every writer noted.
        drop(st);
        if full {
            flush_outbox();
        }
        Ok(())
    }

    fn flush(&mut self) {
        self.held = 0;
        for writer in self.dirty.drain(..) {
            // A failed flush has shut the socket down: its runner reports it.
            let _ = writer.flush(writer.state.lock());
        }
    }
}

/// Writes out every frame the calling thread has deferred. A loop thread
/// does when it runs out of ready work, once it holds [`MAX_HELD_FRAMES`],
/// and before a typed handler that declares it runs long; whatever in this
/// crate blocks a thread (a queue about to park, a synchronous call or
/// gather about to wait) calls this first. So does a raw
/// [`Service`](crate::Service) handler before it waits on anything of its
/// own, keeps working after it has responded, or runs longer than a write.
pub fn flush_outbox() {
    OUTBOX.with_borrow_mut(Outbox::flush);
}

/// Runs `f` as a burst: the frames it queues on any [`ConnWriter`] leave
/// together when it returns, one `write` per connection, as a loop
/// thread's do when it runs out of ready work. Eight `call_async` on one
/// client inside a burst cost one socket write, where they would cost
/// eight outside it.
///
/// `f` must not wait on replies to its own frames, which are still held:
/// a synchronous call and `scatter_wait` flush before they wait, so they
/// are safe; a wait of its own must call [`flush_outbox`] first. On a loop
/// thread (a handler) the frames stay held until that loop flushes.
pub fn burst<R>(f: impl FnOnce() -> R) -> R {
    let _scope = DeferScope::enter();
    f()
}

/// Marks the calling thread as a loop that drains ready work: frames it
/// queues on any [`ConnWriter`] stay in its outbox until it flushes, which
/// it must whenever it is about to wait, and does on the way out. A scope
/// entered inside another leaves the flush to the outer one.
pub(crate) struct DeferScope {
    /// Whether a scope was open when this one was entered.
    nested: bool,
}

impl DeferScope {
    pub(crate) fn enter() -> DeferScope {
        let nested =
            OUTBOX.with_borrow_mut(|outbox| std::mem::replace(&mut outbox.deferring, true));
        DeferScope { nested }
    }
}

impl Drop for DeferScope {
    fn drop(&mut self) {
        if !self.nested {
            OUTBOX.with_borrow_mut(|outbox| {
                outbox.flush();
                outbox.deferring = false;
            });
        }
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

/// Queues `frame`, whose payload is encoded already, on `writer`, for this
/// crate's tests.
#[cfg(test)]
pub(crate) fn send_frame(writer: &SharedWriter, frame: &Frame) -> io::Result<()> {
    writer.write_with(&frame.header, |buf| buf.put_slice(&frame.payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_codec::frame::{FrameKind, MAX_FRAME_LEN};
    use musuite_codec::Status;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn payload_conversions() {
        // Bytes already encoded are a body that copies them, whichever
        // form the caller holds them in.
        let mut buf = BytesMut::new();
        Bytes::from(vec![b'a', b'b']).encode_into(&mut buf);
        vec![b'c'].encode_into(&mut buf);
        Bytes::from(&b"d"[..]).encode_into(&mut buf);
        assert_eq!(&buf[..], b"abcd");
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
        let parts: [&[u8]; 2] = [&[0xAA; 3], &[0xBB]];
        Frame::request(2, 8, Vec::new()).header.encode_with_payload(&parts, &mut wire);
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
                    prop_assert!(buf.lent.iter().map(Bytes::len).sum::<usize>() <= MAX_LENT_BYTES);
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
        let chunks_of =
            |payloads: &[Bytes]| -> HashSet<_> { payloads.iter().map(|p| p.as_ptr()).collect() };
        // Forty payloads of forty reads held at once, more chunks than a
        // bound of 16 chunks would track: once they are dropped, the next
        // forty frames land in the forty chunks they pinned.
        let held: Vec<Bytes> = (0..40).map(|_| next()).collect();
        let chunks = chunks_of(&held);
        assert_eq!(chunks.len(), held.len());
        drop(held);
        let later: Vec<Bytes> = (0..40).map(|_| next()).collect();
        assert_eq!(chunks_of(&later).len(), later.len());
        assert!(later.iter().all(|payload| chunks.contains(&payload.as_ptr())));
        drop(later);
        // More payloads outstanding than the buffer tracks chunks for.
        let tracked = MAX_LENT_BYTES / MIN_CHUNK;
        let held: Vec<Bytes> = (0..2 * tracked).map(|_| next()).collect();
        let chunks = chunks_of(&held);
        assert_eq!(chunks.len(), held.len(), "a held payload's chunk is never refilled");
        assert!(held.iter().all(|payload| payload == &frame.payload));
        drop(held);
        // Once released, the tracked chunks serve the following frames.
        let later: Vec<Bytes> = (0..tracked).map(|_| next()).collect();
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
    use crate::fault::FaultPlan;
    use std::time::Duration;

    #[test]
    fn concurrent_writers_coalesce_without_corruption() {
        let (tx_side, rx_side) = loopback_pair();
        let stats = Arc::new(CoalesceStats::new());
        let writer = Arc::new(ConnWriter::with_stats(tx_side, stats.clone()));
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 25;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let w = writer.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let frame = Frame::request(t * PER_THREAD + i, 9, vec![t as u8; 64]);
                        send_frame(&w, &frame).unwrap();
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

    /// A loop thread that never runs dry still writes once per
    /// [`MAX_HELD_FRAMES`]: 200 frames on one writer leave in four writes,
    /// at 64, 128 and 192 and when the thread leaves its loop.
    #[test]
    fn a_loop_thread_that_never_runs_dry_writes_once_per_max_held_frames() {
        const FRAMES: u64 = 200;
        let (tx_side, rx_side) = loopback_pair();
        let stats = Arc::new(CoalesceStats::new());
        let writer = Arc::new(ConnWriter::with_stats(tx_side, stats.clone()));
        {
            let _scope = DeferScope::enter();
            for id in 1..=FRAMES {
                send_frame(&writer, &Frame::request(id, 1, Vec::new())).unwrap();
                assert_eq!(stats.flushes(), id / MAX_HELD_FRAMES as u64, "after frame {id}");
            }
        }
        assert_eq!((stats.frames(), stats.flushes()), (FRAMES, 4));
        let mut reader = RecvBuf::default();
        for id in 1..=FRAMES {
            let (frame, _) = reader.poll_frame(&mut &rx_side).unwrap().unwrap();
            assert_eq!(frame.header.request_id, id);
        }
    }

    #[test]
    fn corrupted_variant_is_rejected_downstream() {
        let plan = FaultPlan::builder(0, 1).corrupting_leaf(0, 1).build();
        plan.arm();
        let faults = plan.client_faults(0);
        let (tx_side, rx_side) = loopback_pair();
        let writer = Arc::new(ConnWriter::new(tx_side));
        let frame = Frame::request(3, 9, b"poisoned".to_vec());
        faults.write(&writer, &frame.header, |buf| buf.put_slice(&frame.payload)).unwrap();
        let err = RecvBuf::default().poll_frame(&mut &rx_side).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "checksum must catch the flip");
        // Empty payload: the flip lands in the header's last byte instead.
        let (tx_side, rx_side) = loopback_pair();
        let frame = Frame::request(4, 9, Vec::new());
        faults.write(&Arc::new(ConnWriter::new(tx_side)), &frame.header, |_| {}).unwrap();
        let err = RecvBuf::default().poll_frame(&mut &rx_side).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A body that panics under the writer's lock leaves the pending
    /// buffer as it found it: the frames queued before and after it parse.
    #[test]
    fn a_body_that_panics_leaves_the_writer_as_it_was() {
        let (tx_side, rx_side) = loopback_pair();
        let writer = Arc::new(ConnWriter::new(tx_side));
        let first = Frame::request(1, 9, b"before".to_vec());
        let header = Frame::request(2, 9, Vec::new()).header;
        let third = Frame::request(3, 9, b"after".to_vec());
        let unwound = {
            let _scope = DeferScope::enter();
            send_frame(&writer, &first).unwrap();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = writer.write_with(&header, |buf| {
                    buf.put_slice(b"half a payload");
                    panic!("the encoder failed");
                });
            }));
            send_frame(&writer, &third).unwrap();
            unwound
        };
        assert!(unwound.is_err());
        let mut reader = RecvBuf::default();
        assert_eq!(reader.poll_frame(&mut &rx_side).unwrap().unwrap().0, first);
        assert_eq!(reader.poll_frame(&mut &rx_side).unwrap().unwrap().0, third);
        assert_eq!(writer.stats.frames(), 2);
    }

    /// A payload over the limit is refused alone: nothing of it is queued,
    /// and the frames around it leave as usual.
    #[test]
    fn an_oversized_frame_is_refused_without_breaking_the_connection() {
        let (tx_side, rx_side) = loopback_pair();
        let writer = Arc::new(ConnWriter::new(tx_side));
        let header = Frame::request(1, 9, Vec::new()).header;
        let big = vec![0u8; musuite_codec::MAX_FRAME_LEN + 1];
        let refused = writer.write_with(&header, |buf| buf.put_slice(&big)).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
        assert!(too_large(&refused));
        let next = Frame::request(2, 9, b"next".to_vec());
        send_frame(&writer, &next).unwrap();
        let (frame, _) = RecvBuf::default().poll_frame(&mut &rx_side).unwrap().unwrap();
        assert_eq!(frame, next);
    }

    #[test]
    fn broken_connection_refuses_further_frames() {
        let (tx_side, rx_side) = loopback_pair();
        let writer = Arc::new(ConnWriter::new(tx_side));
        drop(rx_side);
        let frame = Frame::request(1, 1, vec![0u8; 4096]);
        let mut saw_error = false;
        for _ in 0..1_000 {
            if send_frame(&writer, &frame).is_err() {
                saw_error = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if saw_error {
            let err = send_frame(&writer, &frame).unwrap_err();
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
            send_frame(&writer, &Frame::request(id, 1, Vec::new())).unwrap();
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

    /// A loop thread reaching [`MAX_HELD_FRAMES`] writes its outbox from
    /// inside `write_with`, while another thread writes a frame of its own
    /// at once: the flusher election between them decides who writes the
    /// held frames, and either way each frame is written exactly once and
    /// none is left pending. The backstop must be seen both to write them
    /// itself and to leave them to the other thread's flush in progress.
    #[test]
    fn a_backstop_flush_racing_another_flusher_writes_every_frame_once() {
        fn send(writer: &SharedWriter, id: u64) {
            send_frame(&writer, &Frame::request(id, 1, Vec::new())).unwrap();
        }
        // Schedules where the backstop [wrote the held frames, found another
        // thread still writing, never fired].
        let outcomes = Arc::new([const { AtomicUsize::new(0) }; 3]);
        let tally = outcomes.clone();
        Checker::new()
            .check(move || {
                let (tx_side, rx_side) = loopback_pair();
                let writer = Arc::new(ConnWriter::new(tx_side));
                let immediate = thread::spawn({
                    let writer = writer.clone();
                    move || send(&writer, 3)
                });
                let outcome = {
                    let _scope = DeferScope::enter();
                    // As if it had held frames on other connections.
                    OUTBOX.with_borrow_mut(|outbox| outbox.held = MAX_HELD_FRAMES - 2);
                    send(&writer, 1);
                    send(&writer, 2);
                    if OUTBOX.with_borrow(|outbox| outbox.held) > 0 {
                        // A frame rode the other thread's flush unheld: no
                        // backstop.
                        2
                    } else {
                        let st = writer.state.lock();
                        usize::from(st.flushing || !st.pending.is_empty())
                    }
                };
                immediate.join().unwrap();
                assert!(writer.state.lock().pending.is_empty(), "a frame was stranded");
                rx_side.set_nonblocking(true).unwrap();
                let mut reader = RecvBuf::default();
                let ids: Vec<u64> =
                    std::iter::from_fn(|| reader.poll_frame(&mut &rx_side).unwrap())
                        .map(|(frame, _)| frame.header.request_id)
                        .collect();
                assert!(matches!(ids[..], [1, 2, 3] | [1, 3, 2] | [3, 1, 2]), "{ids:?}");
                tally[outcome].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            })
            .expect("no schedule may lose, duplicate, reorder or strand a frame");
        let reached = |n: &AtomicUsize| n.load(std::sync::atomic::Ordering::Relaxed) > 0;
        assert!(outcomes[..2].iter().all(reached), "both orders must be reached");
    }
}
