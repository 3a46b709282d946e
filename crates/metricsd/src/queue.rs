//! Bounded frame queues — the in-process transport and the daemon's
//! per-session mailboxes.
//!
//! Two additions serve the reactor:
//!
//! * **Readiness** — every successful push sets a lock-free ready flag
//!   the serving loop consumes with [`FrameQueue::take_ready`]. This is
//!   the in-process analogue of epoll readiness: the daemon's serve loop
//!   skips sessions whose flag is clear instead of locking each inbox,
//!   so 100k mostly-idle subscribers cost an atomic load per pump, not
//!   a mutex acquisition.
//! * **Shared frames** — [`FrameQueue::push_shared`] enqueues an
//!   `Arc<Vec<u8>>` so N subscribers of the same stream push share one
//!   encode; the bytes are only materialised per-consumer at pop time
//!   (and not at all when a single owner remains).
//!
//! The vendored `parking_lot` has no `Condvar`, so blocking receives
//! spin with `yield_now`; in daemon use the queues are drained in
//! lockstep with `pump()` and the blocking path only matters for
//! blocking client transports.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::wire::MAX_FRAME;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// Queue at capacity — backpressure; the caller decides whether to
    /// retry next pump or escalate to eviction.
    Full,
    /// The other side closed the queue.
    Closed,
    /// Frame payload exceeds [`MAX_FRAME`] — the in-process path
    /// enforces the same framing cap as the TCP reader, so an oversized
    /// or corrupt frame can never occupy unbounded memory on either
    /// transport.
    TooBig,
}

/// The same size cap `tcp::read_frame` applies on the wire: a frame is
/// `[u32 len][payload]` with `len <= MAX_FRAME`. (Short frames pass —
/// they decode to a typed `WireError` downstream; only the allocation
/// bound is the queue's business.)
fn frame_ok(frame: &[u8]) -> bool {
    frame.len() <= 4 + MAX_FRAME
}

/// A queued frame: owned bytes, or a shared pre-encoded frame fanned
/// out to many sessions.
enum FrameBuf {
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl FrameBuf {
    fn into_vec(self) -> Vec<u8> {
        match self {
            FrameBuf::Owned(v) => v,
            // Last consumer standing takes the buffer without a copy.
            FrameBuf::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
        }
    }
}

struct Inner {
    q: VecDeque<FrameBuf>,
    closed: bool,
}

/// A bounded MPSC-ish queue of encoded frames.
pub struct FrameQueue {
    inner: Mutex<Inner>,
    cap: usize,
    /// Set by every successful push; consumed by [`take_ready`]. A set
    /// flag means "a push happened since the last take" — the serving
    /// loop combines it with its own knowledge of leftover input to
    /// decide whether the session needs work this pump.
    ///
    /// [`take_ready`]: FrameQueue::take_ready
    ready: AtomicBool,
}

impl FrameQueue {
    pub fn new(cap: usize) -> Arc<FrameQueue> {
        Arc::new(FrameQueue {
            inner: Mutex::new(Inner {
                q: VecDeque::new(),
                closed: false,
            }),
            cap: cap.max(1),
            ready: AtomicBool::new(false),
        })
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Enqueue, refusing at capacity (explicit backpressure).
    pub fn push(&self, frame: Vec<u8>) -> Result<(), PushError> {
        if !frame_ok(&frame) {
            return Err(PushError::TooBig);
        }
        self.push_buf(FrameBuf::Owned(frame))
    }

    /// Enqueue a shared pre-encoded frame (stream fan-out: one encode,
    /// N queues). Same backpressure semantics as [`FrameQueue::push`].
    pub fn push_shared(&self, frame: Arc<Vec<u8>>) -> Result<(), PushError> {
        if !frame_ok(&frame) {
            return Err(PushError::TooBig);
        }
        self.push_buf(FrameBuf::Shared(frame))
    }

    fn push_buf(&self, frame: FrameBuf) -> Result<(), PushError> {
        let mut g = self.inner.lock();
        if g.closed {
            return Err(PushError::Closed);
        }
        if g.q.len() >= self.cap {
            return Err(PushError::Full);
        }
        g.q.push_back(frame);
        drop(g);
        self.ready.store(true, Ordering::Release);
        Ok(())
    }

    /// Enqueue even at capacity by dropping the oldest frame — used for
    /// the final Evicted notice so the slow consumer can learn its fate.
    pub fn force_push(&self, frame: Vec<u8>) {
        if !frame_ok(&frame) {
            return;
        }
        let mut g = self.inner.lock();
        if g.closed {
            return;
        }
        while g.q.len() >= self.cap {
            g.q.pop_front();
        }
        g.q.push_back(FrameBuf::Owned(frame));
        drop(g);
        self.ready.store(true, Ordering::Release);
    }

    /// Consume the readiness flag: true iff a push landed since the
    /// last call. Lock-free — the reactor's idle-session fast path.
    pub fn take_ready(&self) -> bool {
        self.ready.swap(false, Ordering::Acquire)
    }

    pub fn try_pop(&self) -> Option<Vec<u8>> {
        self.inner.lock().q.pop_front().map(FrameBuf::into_vec)
    }

    /// Drain up to `max` frames into `out` under one lock — the write
    /// side's coalescing primitive. Returns how many were taken.
    pub fn pop_many(&self, max: usize, out: &mut Vec<Vec<u8>>) -> usize {
        let mut g = self.inner.lock();
        let n = max.min(g.q.len());
        for _ in 0..n {
            out.push(g.q.pop_front().unwrap().into_vec());
        }
        n
    }

    /// Pop, spinning until a frame arrives, the queue closes empty, or
    /// the timeout expires.
    pub fn pop_blocking(&self, timeout: Duration) -> Option<Vec<u8>> {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let mut g = self.inner.lock();
                if let Some(f) = g.q.pop_front() {
                    return Some(f.into_vec());
                }
                if g.closed {
                    return None;
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::yield_now();
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().q.is_empty()
    }

    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// Close: further pushes fail, pops drain what remains.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        // Wake readiness consumers so a closed session is noticed.
        self.ready.store(true, Ordering::Release);
    }
}

/// The client's end of an in-process connection: two queues crossed
/// with the daemon's session (client tx = session inbox, client rx =
/// session outbox).
pub struct ClientPipe {
    pub tx: Arc<FrameQueue>,
    pub rx: Arc<FrameQueue>,
}

impl ClientPipe {
    pub fn send(&self, frame: Vec<u8>) -> Result<(), PushError> {
        self.tx.push(frame)
    }

    pub fn try_recv(&self) -> Option<Vec<u8>> {
        self.rx.try_pop()
    }

    pub fn recv_blocking(&self, timeout: Duration) -> Option<Vec<u8>> {
        self.rx.pop_blocking(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo() {
        let q = FrameQueue::new(4);
        q.push(vec![1]).unwrap();
        q.push(vec![2]).unwrap();
        assert_eq!(q.try_pop(), Some(vec![1]));
        assert_eq!(q.try_pop(), Some(vec![2]));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn bounded_backpressure() {
        let q = FrameQueue::new(2);
        q.push(vec![1]).unwrap();
        q.push(vec![2]).unwrap();
        assert_eq!(q.push(vec![3]), Err(PushError::Full));
        // force_push evicts the oldest instead of refusing.
        q.force_push(vec![9]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(vec![2]));
        assert_eq!(q.try_pop(), Some(vec![9]));
    }

    #[test]
    fn oversized_frames_are_refused_like_tcp() {
        let q = FrameQueue::new(4);
        // Right at the cap: accepted.
        q.push(vec![0u8; 4 + MAX_FRAME]).unwrap();
        // One byte over: refused by push, ignored by force_push.
        assert_eq!(q.push(vec![0u8; 4 + MAX_FRAME + 1]), Err(PushError::TooBig));
        q.force_push(vec![0u8; 4 + MAX_FRAME + 1]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.try_pop().unwrap().len(), 4 + MAX_FRAME);
    }

    #[test]
    fn close_stops_pushes_drains_pops() {
        let q = FrameQueue::new(4);
        q.push(vec![1]).unwrap();
        q.close();
        assert_eq!(q.push(vec![2]), Err(PushError::Closed));
        assert_eq!(q.try_pop(), Some(vec![1]));
        assert_eq!(q.pop_blocking(Duration::from_millis(5)), None);
    }

    #[test]
    fn pop_blocking_sees_cross_thread_push() {
        let q = FrameQueue::new(4);
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            q2.push(vec![7]).unwrap();
        });
        let got = q.pop_blocking(Duration::from_secs(2));
        t.join().unwrap();
        assert_eq!(got, Some(vec![7]));
    }

    #[test]
    fn shared_frames_fan_out_one_encode_to_many_queues() {
        let frame = Arc::new(vec![1, 2, 3]);
        let queues: Vec<_> = (0..3).map(|_| FrameQueue::new(4)).collect();
        for q in &queues {
            q.push_shared(frame.clone()).unwrap();
        }
        drop(frame);
        for q in &queues {
            assert_eq!(q.try_pop(), Some(vec![1, 2, 3]));
        }
        // Shared frames respect capacity and the size cap.
        let q = FrameQueue::new(1);
        q.push_shared(Arc::new(vec![0])).unwrap();
        assert_eq!(q.push_shared(Arc::new(vec![0])), Err(PushError::Full));
        assert_eq!(
            q.push_shared(Arc::new(vec![0; 4 + MAX_FRAME + 1])),
            Err(PushError::TooBig)
        );
    }

    #[test]
    fn readiness_flag_is_set_by_push_and_consumed_once() {
        let q = FrameQueue::new(4);
        assert!(!q.take_ready(), "fresh queue is idle");
        q.push(vec![1]).unwrap();
        assert!(q.take_ready());
        assert!(!q.take_ready(), "flag consumed");
        q.force_push(vec![2]);
        assert!(q.take_ready());
        q.push_shared(Arc::new(vec![3])).unwrap();
        assert!(q.take_ready());
        // Close also raises readiness so dead sessions are noticed.
        q.close();
        assert!(q.take_ready());
    }

    #[test]
    fn pop_many_drains_in_order_under_one_lock() {
        let q = FrameQueue::new(8);
        for i in 0..5u8 {
            q.push(vec![i]).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_many(3, &mut out), 3);
        assert_eq!(out, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(q.pop_many(10, &mut out), 2);
        assert_eq!(out.len(), 5);
        assert_eq!(q.pop_many(1, &mut out), 0);
    }
}
