//! Deterministic transport fault injection.
//!
//! [`ChaosTransport`] wraps any [`Transport`] and injects transport
//! faults from a per-session seeded plan, mirroring the `simos::faults`
//! design: the same seed and the same operation sequence reproduce the
//! same faults byte-for-byte, so a chaotic run is as replayable as a
//! clean one. The injected fault kinds:
//!
//! * **reset** — the connection dies (the inner transport is shut
//!   down); every later operation fails until the caller reconnects,
//! * **stall** — the link goes quiet for a window of operations;
//!   frames sent meanwhile are held and delivered when it clears,
//! * **short write** — only a prefix of the frame (cut inside the
//!   4-byte header region) reaches the peer,
//! * **truncate** — the frame loses part of its payload (header
//!   intact, length prefix now lies),
//! * **corrupt** — one bit of the frame flips in flight,
//! * **delay** — one frame is held back for a fixed number of
//!   operations, then delivered (order within each direction is
//!   preserved — a delayed frame delays the frames behind it, exactly
//!   like a congested link).
//!
//! All mutations stay inside the peer's typed-error envelope: a short,
//! truncated, or bit-flipped frame decodes to `WireError` /
//! `BAD_FRAME` / `BAD_CHECKSUM` — never a panic, and (thanks to the
//! header checksum in [`crate::wire::Header`]) never a silently
//! *different* valid request.
//!
//! Fault draws happen only when a frame actually moves (one draw per
//! frame per direction), so over the in-process lockstep pipe the
//! schedule is fully deterministic. Over TCP the draw sequence is still
//! per-frame deterministic, but wall-clock timing can reorder which
//! frame meets which draw; use the pipe when bit-replayability matters.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{ClientError, Transport};

/// Per-mille fault rates and window lengths for one chaotic link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Base seed; combine with a per-session index via
    /// [`ChaosConfig::with_seed`] so each link draws its own plan.
    pub seed: u64,
    /// Per-mille chance (per moving frame) of a connection reset.
    pub reset_pm: u32,
    /// Per-mille chance of opening a stall window.
    pub stall_pm: u32,
    /// Per-mille chance of a short write (cut inside the header).
    pub short_write_pm: u32,
    /// Per-mille chance of payload truncation (header intact).
    pub truncate_pm: u32,
    /// Per-mille chance of a single-bit flip.
    pub corrupt_pm: u32,
    /// Per-mille chance of holding one frame back.
    pub delay_pm: u32,
    /// Operations a stall window lasts.
    pub stall_ops: u32,
    /// Operations a delayed frame is held.
    pub delay_ops: u32,
}

impl ChaosConfig {
    /// No injection at all (every rate zero).
    pub fn off() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            reset_pm: 0,
            stall_pm: 0,
            short_write_pm: 0,
            truncate_pm: 0,
            corrupt_pm: 0,
            delay_pm: 0,
            stall_ops: 4,
            delay_ops: 2,
        }
    }

    /// A named preset. `off` disables injection; one preset per fault
    /// kind isolates it; `mix` turns everything on at once; `heavy` is
    /// `mix` at roughly triple the rates.
    pub fn preset(name: &str) -> Option<ChaosConfig> {
        let base = ChaosConfig::off();
        match name.trim() {
            "off" => Some(base),
            "reset" => Some(ChaosConfig {
                reset_pm: 30,
                ..base
            }),
            "stall" => Some(ChaosConfig {
                stall_pm: 60,
                ..base
            }),
            "short" => Some(ChaosConfig {
                short_write_pm: 60,
                ..base
            }),
            "truncate" => Some(ChaosConfig {
                truncate_pm: 60,
                ..base
            }),
            "corrupt" => Some(ChaosConfig {
                corrupt_pm: 60,
                ..base
            }),
            "delay" => Some(ChaosConfig {
                delay_pm: 80,
                ..base
            }),
            "mix" => Some(ChaosConfig {
                reset_pm: 15,
                stall_pm: 20,
                short_write_pm: 20,
                truncate_pm: 20,
                corrupt_pm: 20,
                delay_pm: 30,
                ..base
            }),
            "heavy" => Some(ChaosConfig {
                reset_pm: 40,
                stall_pm: 60,
                short_write_pm: 60,
                truncate_pm: 60,
                corrupt_pm: 60,
                delay_pm: 80,
                ..base
            }),
            _ => None,
        }
    }

    /// Same rates, different seed (per-session plans).
    pub fn with_seed(mut self, seed: u64) -> ChaosConfig {
        self.seed = seed;
        self
    }

    /// True when every rate is zero.
    pub fn is_off(&self) -> bool {
        self.reset_pm == 0
            && self.stall_pm == 0
            && self.short_write_pm == 0
            && self.truncate_pm == 0
            && self.corrupt_pm == 0
            && self.delay_pm == 0
    }
}

/// What a chaotic link did to the traffic, for cross-checking against
/// client retry counts and the daemon's self-metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    pub frames_sent: u64,
    pub frames_recvd: u64,
    pub resets: u64,
    pub stalls: u64,
    pub short_writes: u64,
    pub truncations: u64,
    pub corruptions: u64,
    pub delays: u64,
}

impl ChaosStats {
    /// Total injected faults of every kind.
    pub fn total(&self) -> u64 {
        self.resets
            + self.stalls
            + self.short_writes
            + self.truncations
            + self.corruptions
            + self.delays
    }

    pub fn merge(&mut self, other: &ChaosStats) {
        self.frames_sent += other.frames_sent;
        self.frames_recvd += other.frames_recvd;
        self.resets += other.resets;
        self.stalls += other.stalls;
        self.short_writes += other.short_writes;
        self.truncations += other.truncations;
        self.corruptions += other.corruptions;
        self.delays += other.delays;
    }
}

enum Fault {
    Reset,
    Stall,
    ShortWrite,
    Truncate,
    Corrupt,
    Delay,
}

/// A [`Transport`] wrapper injecting faults from a seeded plan.
pub struct ChaosTransport<T: Transport> {
    inner: T,
    cfg: ChaosConfig,
    rng: StdRng,
    dead: bool,
    /// Remaining operations in the current stall window.
    stall_left: u32,
    /// Outbound frames held by stall/delay: `(ops_left, frame)`.
    held_out: VecDeque<(u32, Vec<u8>)>,
    /// Inbound frames held by stall/delay.
    held_in: VecDeque<(u32, Vec<u8>)>,
    stats: ChaosStats,
    /// Optional cumulative sink, merged into on drop — lets a
    /// reconnecting client account for every transport it burned
    /// through, not just the live one.
    shared: Option<Arc<Mutex<ChaosStats>>>,
}

impl<T: Transport> Drop for ChaosTransport<T> {
    fn drop(&mut self) {
        if let Some(s) = &self.shared {
            s.lock().merge(&self.stats);
        }
    }
}

impl<T: Transport> ChaosTransport<T> {
    pub fn new(inner: T, cfg: ChaosConfig) -> ChaosTransport<T> {
        ChaosTransport {
            inner,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            dead: false,
            stall_left: 0,
            held_out: VecDeque::new(),
            held_in: VecDeque::new(),
            stats: ChaosStats::default(),
            shared: None,
        }
    }

    /// Accumulate this transport's stats into `sink` when it drops.
    pub fn with_shared_stats(mut self, sink: Arc<Mutex<ChaosStats>>) -> ChaosTransport<T> {
        self.shared = Some(sink);
        self
    }

    /// The link was reset (by injection) and needs a reconnect.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// One draw per moving frame: at most one fault kind fires.
    fn draw(&mut self) -> Option<Fault> {
        if self.cfg.is_off() {
            return None;
        }
        let roll = self.rng.gen_range_u64(0, 1000) as u32;
        let mut edge = self.cfg.reset_pm;
        if roll < edge {
            return Some(Fault::Reset);
        }
        edge += self.cfg.stall_pm;
        if roll < edge {
            return Some(Fault::Stall);
        }
        edge += self.cfg.short_write_pm;
        if roll < edge {
            return Some(Fault::ShortWrite);
        }
        edge += self.cfg.truncate_pm;
        if roll < edge {
            return Some(Fault::Truncate);
        }
        edge += self.cfg.corrupt_pm;
        if roll < edge {
            return Some(Fault::Corrupt);
        }
        edge += self.cfg.delay_pm;
        if roll < edge {
            return Some(Fault::Delay);
        }
        None
    }

    /// Advance hold countdowns by one operation and flush what is due.
    /// Order within each direction is preserved: a frame behind a held
    /// one waits at least as long.
    fn tick_holds(&mut self) {
        if self.stall_left > 0 {
            self.stall_left -= 1;
        }
        for h in self.held_out.iter_mut().chain(self.held_in.iter_mut()) {
            h.0 = h.0.saturating_sub(1);
        }
        while let Some((left, _)) = self.held_out.front() {
            if *left > 0 || self.stall_left > 0 {
                break;
            }
            let (_, frame) = self.held_out.pop_front().unwrap();
            if self.inner.send(frame).is_err() {
                self.dead = true;
                break;
            }
        }
    }

    /// Mutate a frame according to the drawn fault. Returns `None` when
    /// the frame should be held instead of delivered now.
    fn apply(&mut self, fault: &Fault, mut frame: Vec<u8>) -> Option<Vec<u8>> {
        match fault {
            Fault::Reset => unreachable!("reset handled by callers"),
            Fault::Stall => {
                self.stats.stalls += 1;
                self.stall_left = self.cfg.stall_ops.max(1);
                None
            }
            Fault::Delay => {
                self.stats.delays += 1;
                None
            }
            Fault::ShortWrite => {
                self.stats.short_writes += 1;
                let cut = self.rng.gen_range_u64(0, 4.min(frame.len() as u64).max(1)) as usize;
                frame.truncate(cut);
                Some(frame)
            }
            Fault::Truncate => {
                self.stats.truncations += 1;
                if frame.len() > 5 {
                    let cut = self.rng.gen_range_u64(4, frame.len() as u64) as usize;
                    frame.truncate(cut);
                }
                Some(frame)
            }
            Fault::Corrupt => {
                self.stats.corruptions += 1;
                if !frame.is_empty() {
                    let byte = self.rng.gen_range_u64(0, frame.len() as u64) as usize;
                    let bit = self.rng.gen_range_u64(0, 8) as u8;
                    frame[byte] ^= 1 << bit;
                }
                Some(frame)
            }
        }
    }

    /// Pull the next inbound frame through the fault plan.
    fn chaotic_recv(&mut self) -> Option<Vec<u8>> {
        self.tick_holds();
        if self.dead {
            return None;
        }
        // Held inbound frames deliver first (FIFO) once due and not
        // inside a stall window.
        if let Some((left, _)) = self.held_in.front() {
            if *left == 0 && self.stall_left == 0 {
                let (_, frame) = self.held_in.pop_front().unwrap();
                self.stats.frames_recvd += 1;
                return Some(frame);
            }
        }
        let frame = self.inner.try_recv()?;
        match self.draw() {
            None => {
                if self.stall_left > 0 || !self.held_in.is_empty() {
                    // Can't overtake a stall window or a held frame.
                    self.held_in.push_back((self.stall_left, frame));
                    return None;
                }
                self.stats.frames_recvd += 1;
                Some(frame)
            }
            Some(Fault::Reset) => {
                self.stats.resets += 1;
                self.dead = true;
                self.inner.shutdown();
                None
            }
            Some(f @ (Fault::Stall | Fault::Delay)) => {
                let hold = match f {
                    Fault::Stall => {
                        self.stats.stalls += 1;
                        self.stall_left = self.cfg.stall_ops.max(1);
                        self.stall_left
                    }
                    _ => {
                        self.stats.delays += 1;
                        self.cfg.delay_ops.max(1)
                    }
                };
                self.held_in.push_back((hold, frame));
                None
            }
            Some(f) => {
                let mutated = self.apply(&f, frame).expect("mutating faults deliver");
                if !self.held_in.is_empty() {
                    self.held_in.push_back((0, mutated));
                    return None;
                }
                self.stats.frames_recvd += 1;
                Some(mutated)
            }
        }
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), ClientError> {
        self.tick_holds();
        if self.dead {
            return Err(ClientError::Send("chaos: connection reset"));
        }
        self.stats.frames_sent += 1;
        match self.draw() {
            None => {
                if self.stall_left > 0 || !self.held_out.is_empty() {
                    self.held_out.push_back((self.stall_left, frame));
                    return Ok(());
                }
                self.inner.send(frame)
            }
            Some(Fault::Reset) => {
                self.stats.resets += 1;
                self.dead = true;
                self.inner.shutdown();
                Err(ClientError::Send("chaos: connection reset"))
            }
            Some(f @ (Fault::Stall | Fault::Delay)) => {
                // The frame is held, not lost: "sent" from the caller's
                // view, delivered when the window clears.
                let hold = match f {
                    Fault::Stall => {
                        self.stats.stalls += 1;
                        self.stall_left = self.cfg.stall_ops.max(1);
                        self.stall_left
                    }
                    _ => {
                        self.stats.delays += 1;
                        self.cfg.delay_ops.max(1)
                    }
                };
                self.held_out.push_back((hold, frame));
                Ok(())
            }
            Some(f) => {
                let mutated = self.apply(&f, frame).expect("mutating faults deliver");
                if !self.held_out.is_empty() {
                    self.held_out.push_back((0, mutated));
                    return Ok(());
                }
                self.inner.send(mutated)
            }
        }
    }

    fn recv(&mut self, timeout: Duration) -> Option<Vec<u8>> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(frame) = self.chaotic_recv() {
                return Some(frame);
            }
            if self.dead || std::time::Instant::now() >= deadline {
                return None;
            }
            std::thread::yield_now();
        }
    }

    fn try_recv(&mut self) -> Option<Vec<u8>> {
        self.chaotic_recv()
    }

    fn shutdown(&mut self) {
        self.dead = true;
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::FrameQueue;
    use crate::wire::{Request, MAX_FRAME};

    /// Loopback transport: sends land in a queue we can inspect;
    /// receives come from another we can feed.
    struct Loop {
        out: std::sync::Arc<FrameQueue>,
        inn: std::sync::Arc<FrameQueue>,
    }

    impl Loop {
        fn new() -> Loop {
            Loop {
                out: FrameQueue::new(1024),
                inn: FrameQueue::new(1024),
            }
        }
    }

    impl Transport for Loop {
        fn send(&mut self, frame: Vec<u8>) -> Result<(), ClientError> {
            self.out
                .push(frame)
                .map_err(|_| ClientError::Send("loop full"))
        }
        fn recv(&mut self, _timeout: Duration) -> Option<Vec<u8>> {
            self.inn.try_pop()
        }
        fn try_recv(&mut self) -> Option<Vec<u8>> {
            self.inn.try_pop()
        }
        fn shutdown(&mut self) {
            self.out.close();
            self.inn.close();
        }
    }

    fn frame() -> Vec<u8> {
        Request::Read {
            sub_id: 1,
            submit_ns: 99,
        }
        .encode()
    }

    #[test]
    fn off_config_is_transparent() {
        let lo = Loop::new();
        let out = lo.out.clone();
        let mut t = ChaosTransport::new(lo, ChaosConfig::off());
        for _ in 0..100 {
            t.send(frame()).unwrap();
        }
        assert_eq!(out.len(), 100);
        assert_eq!(out.try_pop().unwrap(), frame());
        assert_eq!(t.stats().total(), 0);
    }

    #[test]
    fn same_seed_same_plan() {
        let cfg = ChaosConfig::preset("mix").unwrap().with_seed(0xfeed);
        let run = || {
            let lo = Loop::new();
            let out = lo.out.clone();
            let mut t = ChaosTransport::new(lo, cfg);
            let mut delivered = Vec::new();
            for _ in 0..300 {
                let _ = t.send(frame());
            }
            while let Some(f) = out.try_pop() {
                delivered.push(f);
            }
            (delivered, t.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "delivered byte streams identical");
        assert_eq!(sa, sb, "fault counts identical");
        assert!(sa.total() > 0, "mix preset injected something");
    }

    #[test]
    fn reset_kills_the_link() {
        let cfg = ChaosConfig {
            reset_pm: 1000,
            ..ChaosConfig::off()
        };
        let mut t = ChaosTransport::new(Loop::new(), cfg);
        assert!(t.send(frame()).is_err());
        assert!(t.is_dead());
        assert!(t.send(frame()).is_err());
        assert_eq!(t.stats().resets, 1, "one reset, then the link is dead");
    }

    #[test]
    fn stall_holds_then_flushes_in_order() {
        let cfg = ChaosConfig {
            stall_pm: 1000,
            stall_ops: 3,
            ..ChaosConfig::off()
        };
        let lo = Loop::new();
        let out = lo.out.clone();
        let mut t = ChaosTransport::new(lo, cfg);
        // Every send stalls (rate 1000‰), so frames only move once the
        // window expires — but nothing is ever lost.
        let mk = |i: u8| {
            Request::Read {
                sub_id: i as u32,
                submit_ns: 0,
            }
            .encode()
        };
        t.send(mk(1)).unwrap();
        t.send(mk(2)).unwrap();
        assert_eq!(out.len(), 0, "stalled frames are held");
        // Idle ticks (empty recv polls) advance the windows.
        for _ in 0..64 {
            let _ = t.try_recv();
        }
        let got: Vec<Vec<u8>> = std::iter::from_fn(|| out.try_pop()).collect();
        assert_eq!(got, vec![mk(1), mk(2)], "flushed in order, none lost");
        assert!(t.stats().stalls >= 1);
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let cfg = ChaosConfig {
            corrupt_pm: 1000,
            ..ChaosConfig::off()
        };
        let lo = Loop::new();
        let out = lo.out.clone();
        let mut t = ChaosTransport::new(lo, cfg);
        t.send(frame()).unwrap();
        let got = out.try_pop().unwrap();
        let orig = frame();
        assert_eq!(got.len(), orig.len());
        let flipped: u32 = got
            .iter()
            .zip(&orig)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit differs");
    }

    #[test]
    fn truncate_and_short_write_shrink_the_frame() {
        for (cfg, name) in [
            (
                ChaosConfig {
                    truncate_pm: 1000,
                    ..ChaosConfig::off()
                },
                "truncate",
            ),
            (
                ChaosConfig {
                    short_write_pm: 1000,
                    ..ChaosConfig::off()
                },
                "short",
            ),
        ] {
            let lo = Loop::new();
            let out = lo.out.clone();
            let mut t = ChaosTransport::new(lo, cfg);
            t.send(frame()).unwrap();
            let got = out.try_pop().unwrap();
            assert!(got.len() < frame().len(), "{name} shrank the frame");
            assert!(got.len() <= 4 + MAX_FRAME);
        }
    }

    #[test]
    fn delay_preserves_order() {
        let cfg = ChaosConfig {
            delay_pm: 500,
            delay_ops: 2,
            ..ChaosConfig::off()
        };
        let lo = Loop::new();
        let out = lo.out.clone();
        let mut t = ChaosTransport::new(lo, cfg);
        let mk = |i: u32| {
            Request::Read {
                sub_id: i,
                submit_ns: 0,
            }
            .encode()
        };
        for i in 0..50 {
            t.send(mk(i)).unwrap();
        }
        for _ in 0..64 {
            let _ = t.try_recv();
        }
        let got: Vec<Vec<u8>> = std::iter::from_fn(|| out.try_pop()).collect();
        let want: Vec<Vec<u8>> = (0..50).map(mk).collect();
        assert_eq!(got, want, "delays never reorder or drop frames");
        assert!(t.stats().delays > 0, "delays fired at 500‰");
    }

    #[test]
    fn presets_off_is_off_and_every_other_injects() {
        assert!(ChaosConfig::preset("off").unwrap().is_off());
        for p in [
            "reset", "stall", "short", "truncate", "corrupt", "delay", "mix", "heavy",
        ] {
            assert!(!ChaosConfig::preset(p).unwrap().is_off(), "{p} injects");
        }
        assert_eq!(ChaosConfig::preset("tyop"), None);
    }
}
