//! TCP-loopback transport: the same length-prefixed frames as the
//! in-process pipe, over a socket.
//!
//! The server side is a single-threaded readiness reactor: one IO
//! thread owns the non-blocking listening socket and every accepted
//! connection, and each pass accepts new sockets, pumps readable bytes
//! through a per-connection incremental [`FrameDecoder`] (frames are
//! reassembled across read boundaries, so a frame split at any byte —
//! or ten frames arriving in one read — decodes identically), and
//! flushes session outboxes with coalesced vectored writes. Two threads
//! per connection become zero: at 100k sessions the old design needed
//! 200k OS threads; the reactor needs one.
//!
//! Backpressure composes end-to-end: a full session inbox stashes the
//! decoded frame and stops reading that socket (TCP flow control then
//! slows the peer); a slow socket leaves frames in the session outbox,
//! which is exactly the signal the daemon's stall-grace/eviction ladder
//! watches. When the daemon evicts or closes the session, the outbox
//! drains to the socket and the write side shuts down.

use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::client::{ClientError, Transport};
use crate::queue::FrameQueue;
use crate::server::Connector;
use crate::wire::{FrameDecoder, MAX_FRAME};

/// Sleep when a full reactor pass makes no progress (no accepts, no
/// bytes moved). Short enough to stay responsive, long enough to idle.
const IDLE_NAP: Duration = Duration::from_micros(500);

/// Frames staged off a session outbox per refill. Small on purpose:
/// draining eagerly would hide a slow socket from the daemon's
/// outbox-full eviction ladder.
const WRITE_BATCH: usize = 16;

/// Max `IoSlice`s per vectored write.
const IOV_MAX: usize = 16;

/// A running TCP listener bridging sockets onto daemon sessions.
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    io_thread: Option<std::thread::JoinHandle<()>>,
}

impl Listener {
    /// Bind (e.g. `"127.0.0.1:0"` for an ephemeral port) and start the
    /// reactor. Each accepted socket becomes one daemon session.
    pub fn spawn(connector: Connector, bind: &str) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let io_thread = std::thread::Builder::new()
            .name("metricsd-tcpio".into())
            .spawn(move || reactor_loop(&listener, &connector, &stop2))?;
        Ok(Listener {
            addr,
            stop,
            io_thread: Some(io_thread),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the reactor. In-flight sessions are torn down; the daemon
    /// reaps them (parking resumable ones) on its next pump.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.io_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One accepted socket bridged onto a daemon session.
struct Conn {
    stream: TcpStream,
    /// Socket → daemon direction.
    inbox: Arc<FrameQueue>,
    /// Daemon → socket direction.
    outbox: Arc<FrameQueue>,
    dec: FrameDecoder,
    /// A decoded frame the inbox had no room for; while stashed, the
    /// socket is not read (TCP flow control backpressures the peer).
    stashed: Option<Vec<u8>>,
    /// Frames staged for writing, oldest first; `out_off` bytes of the
    /// front frame are already on the wire (partial-write carry).
    out: std::collections::VecDeque<Vec<u8>>,
    out_off: usize,
    read_dead: bool,
    write_shut: bool,
}

fn reactor_loop(listener: &TcpListener, connector: &Connector, stop: &AtomicBool) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut rdbuf = vec![0u8; 64 * 1024];
    while !stop.load(Ordering::Relaxed) {
        let mut progress = false;

        // Accept everything pending.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let pipe = connector.connect();
                    conns.push(Conn {
                        stream,
                        inbox: pipe.tx,
                        outbox: pipe.rx,
                        dec: FrameDecoder::new(),
                        stashed: None,
                        out: std::collections::VecDeque::new(),
                        out_off: 0,
                        read_dead: false,
                        write_shut: false,
                    });
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return,
            }
        }

        for c in &mut conns {
            progress |= pump_read(c, &mut rdbuf);
            progress |= pump_write(c);
        }
        conns.retain(|c| !(c.write_shut && (c.read_dead || c.inbox.is_closed())));

        if !progress {
            std::thread::sleep(IDLE_NAP);
        }
    }
    // Reactor shutdown: close both directions so the daemon reaps every
    // session on its next pump.
    for c in &conns {
        c.inbox.close();
        c.outbox.close();
        let _ = c.stream.shutdown(Shutdown::Both);
    }
}

/// Drain readable socket bytes through the decoder into the session
/// inbox. Returns true if any byte or frame moved.
fn pump_read(c: &mut Conn, rdbuf: &mut [u8]) -> bool {
    if c.read_dead {
        return false;
    }
    if c.inbox.is_closed() {
        // Daemon closed/evicted the session: stop reading; the write
        // side finishes draining the outbox.
        c.read_dead = true;
        let _ = c.stream.shutdown(Shutdown::Read);
        return false;
    }
    let mut moved = false;

    // Re-deliver the stashed frame first; the socket stays unread until
    // the inbox accepts it. The capacity check is stable: this thread
    // is the inbox's only producer, and the daemon popping can only
    // make more room.
    if c.stashed.is_some() {
        if c.inbox.len() >= c.inbox.capacity() {
            return false;
        }
        let frame = c.stashed.take().expect("checked above");
        match c.inbox.push(frame) {
            Ok(()) => moved = true,
            Err(_) => {
                c.read_dead = true;
                return true;
            }
        }
    }

    loop {
        // Flush decoded frames before reading more.
        loop {
            match c.dec.next_frame() {
                Ok(Some(frame)) => {
                    if c.inbox.len() >= c.inbox.capacity() {
                        // Backpressure: park the frame and stop reading
                        // this socket until the daemon drains the inbox.
                        c.stashed = Some(frame);
                        return moved;
                    }
                    match c.inbox.push(frame) {
                        Ok(()) => moved = true,
                        Err(_) => {
                            c.read_dead = true;
                            return true;
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Oversized prefix: the byte stream is desynced and
                    // unrecoverable. Kill the connection.
                    c.inbox.close();
                    c.read_dead = true;
                    let _ = c.stream.shutdown(Shutdown::Both);
                    return true;
                }
            }
        }
        match c.stream.read(rdbuf) {
            Ok(0) => {
                c.inbox.close();
                c.read_dead = true;
                return true;
            }
            Ok(n) => {
                c.dec.feed(&rdbuf[..n]);
                moved = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                c.inbox.close();
                c.read_dead = true;
                return true;
            }
        }
    }
    moved
}

/// Flush staged and freshly popped outbox frames to the socket with
/// coalesced vectored writes. Returns true if any byte moved.
fn pump_write(c: &mut Conn) -> bool {
    if c.write_shut {
        return false;
    }
    let mut moved = false;
    let mut scratch: Vec<Vec<u8>> = Vec::new();
    loop {
        // Refill only when empty: staging at most WRITE_BATCH frames
        // keeps outbox occupancy visible to the daemon's eviction
        // ladder when the socket is the bottleneck.
        if c.out.is_empty() {
            scratch.clear();
            if c.outbox.pop_many(WRITE_BATCH, &mut scratch) == 0 {
                break;
            }
            c.out.extend(scratch.drain(..));
        }
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(IOV_MAX.min(c.out.len()));
        for (i, frame) in c.out.iter().take(IOV_MAX).enumerate() {
            let start = if i == 0 { c.out_off } else { 0 };
            slices.push(IoSlice::new(&frame[start..]));
        }
        match c.stream.write_vectored(&slices) {
            Ok(0) => {
                c.outbox.close();
                c.write_shut = true;
                return true;
            }
            Ok(mut n) => {
                moved = true;
                while n > 0 {
                    let front_left = c.out.front().map_or(0, |f| f.len() - c.out_off);
                    if n >= front_left {
                        n -= front_left;
                        c.out.pop_front();
                        c.out_off = 0;
                    } else {
                        c.out_off += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return moved,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                c.outbox.close();
                c.write_shut = true;
                return true;
            }
        }
    }
    // Nothing staged and nothing poppable: if the daemon sealed the
    // outbox, the stream is fully flushed — finish the write side.
    if c.out.is_empty() && c.outbox.is_closed() && c.outbox.is_empty() {
        let _ = c.stream.flush();
        let _ = c.stream.shutdown(Shutdown::Write);
        c.write_shut = true;
        moved = true;
    }
    moved
}

/// Read one whole frame (prefix included). `Ok(None)` means the read
/// timed out before a frame started; mid-frame timeouts keep waiting.
fn read_frame(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match read_exact_persistent(stream, &mut header, true)? {
        ReadOutcome::Done => {}
        ReadOutcome::TimedOutAtStart => return Ok(None),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut frame = vec![0u8; 4 + len];
    frame[..4].copy_from_slice(&header);
    match read_exact_persistent(stream, &mut frame[4..], false)? {
        ReadOutcome::Done => Ok(Some(frame)),
        ReadOutcome::TimedOutAtStart => unreachable!("persistent body read"),
    }
}

enum ReadOutcome {
    Done,
    TimedOutAtStart,
}

/// `read_exact` across read-timeout boundaries. With `allow_idle`, a
/// timeout before the first byte reports `TimedOutAtStart`; once bytes
/// have arrived (or without `allow_idle`) timeouts keep retrying so a
/// frame is never torn.
fn read_exact_persistent(
    stream: &mut TcpStream,
    buf: &mut [u8],
    allow_idle: bool,
) -> std::io::Result<ReadOutcome> {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed",
                ))
            }
            Ok(n) => got += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if got == 0 && allow_idle {
                    return Ok(ReadOutcome::TimedOutAtStart);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Done)
}

/// Client-side transport over a connected socket.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpTransport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(20)))?;
        Ok(TcpTransport { stream })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), ClientError> {
        self.stream
            .write_all(&frame)
            .map_err(|_| ClientError::Send("socket write failed"))
    }

    fn recv(&mut self, timeout: Duration) -> Option<Vec<u8>> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match read_frame(&mut self.stream) {
                Ok(Some(frame)) => return Some(frame),
                Ok(None) => {
                    if std::time::Instant::now() >= deadline {
                        return None;
                    }
                }
                Err(_) => return None,
            }
        }
    }

    fn try_recv(&mut self) -> Option<Vec<u8>> {
        read_frame(&mut self.stream).unwrap_or_default()
    }

    fn shutdown(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}
