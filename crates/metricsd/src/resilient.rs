//! A resuming, reissuing client that survives transport chaos.
//!
//! [`ResilientClient`] wraps a dial closure (so it can reconnect as
//! many times as the link dies) and sends every RPC with the
//! checksummed frame [`Header`] and its own seq. It is *poll-based*: one
//! [`ResilientClient::step`] per lockstep round, which is what lets
//! chaosbench hold the whole fleet plus the daemon in a deterministic
//! round → pump cadence (a blocking client would couple recovery
//! timing to the host scheduler).
//!
//! The recovery ladder, from cheapest to most drastic:
//!
//! 1. **Reissue** — no reply within `RPC_TIMEOUT_ROUNDS`, or a typed
//!    refusal (`BAD_CHECKSUM`, `BAD_FRAME`): resend the *same*
//!    sequence id. The daemon's per-session reply cache makes this
//!    idempotent — an RPC applied once is never applied twice.
//! 2. **Back off** — an [`Response::Overloaded`] shed: wait the hinted
//!    `retry_after_pumps` rounds, then reissue (shed requests were
//!    never applied, so reissue is safe by construction).
//! 3. **Reconnect + resume** — a dead transport: redial after a capped
//!    exponential backoff (deterministic jitter, always ≥ 1 round so
//!    the daemon reaps the dead session into its parked table first),
//!    then present the session token in [`Request::Resume`]. On
//!    [`Response::Resumed`] the subscriptions, delta-stream setting, and
//!    reply cache all survive; the gap is surfaced via `gap_pumps` and
//!    via `ReadQuality::Scaled` on resumed subscriptions — explicit,
//!    never silent.
//! 4. **Start over** — token expired (`NO_SUCH_TOKEN` after
//!    `RESUME_GRACE` retries) or eviction: fresh `Hello`, and
//!    [`ResilientClient::take_session_lost`] tells the caller its
//!    subscriptions are gone and must be rebuilt.

use std::collections::VecDeque;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtrace::{span, EventKind, TraceSink};

use crate::client::{ClientError, Transport};
use crate::wire::{errcode, Header, Request, Response, TraceCtx, PROTO_VERSION};

// Retry/backoff tuning, all in lockstep rounds.

/// Rounds to wait for a reply before reissuing the same seq.
const RPC_TIMEOUT_ROUNDS: u32 = 3;
/// First reconnect backoff (doubles per consecutive failure).
const BACKOFF_BASE_ROUNDS: u32 = 1;
/// Backoff ceiling.
const BACKOFF_CAP_ROUNDS: u32 = 8;
/// Reissue attempts per RPC before giving up with `Timeout`.
const MAX_ATTEMPTS: u32 = 200;
/// `NO_SUCH_TOKEN` replies tolerated (the daemon may not have parked the
/// old session yet) before falling back to a fresh `Hello`.
const RESUME_GRACE: u32 = 4;

/// Client-observed recovery counts, for cross-checking against the
/// chaos injector's stats and the daemon's self-metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilientStats {
    /// RPCs completed with a reply delivered to the caller.
    pub completed: u64,
    /// Same-seq reissues (timeouts and typed refusals).
    pub retries: u64,
    /// Transport deaths observed.
    pub conn_resets: u64,
    /// Successful re-dials.
    pub reconnects: u64,
    /// Sessions resumed from a token.
    pub resumes: u64,
    /// Total pumps missed across all resumes (the explicit gap).
    pub gap_pumps: u64,
    /// `Overloaded` sheds observed (and waited out).
    pub overloads: u64,
    /// Sessions lost for good (token expired or evicted).
    pub sessions_lost: u64,
    /// RPCs abandoned after `MAX_ATTEMPTS`.
    pub give_ups: u64,
}

struct InFlight {
    seq: u32,
    /// The full encoded header frame, resent verbatim on reissue. A
    /// sampled RPC's header carries its trace context, so every reissue
    /// propagates the *same* trace id — retries of one logical request
    /// stitch into one timeline.
    frame: Vec<u8>,
    /// Nonzero when the frame carries a sampled trace context.
    trace_id: u64,
    /// The client-hop span has been opened (first real send).
    span_opened: bool,
    /// Sent on the current transport and awaiting a reply.
    sent: bool,
    rounds_waiting: u32,
    /// Overload backoff: rounds to hold before (re)sending.
    wait_rounds: u32,
    attempts: u32,
}

impl InFlight {
    /// `trace_id == 0` sends the RPC unsampled.
    fn new(seq: u32, req: &Request, trace_id: u64) -> InFlight {
        let trace = TraceCtx {
            trace_id,
            parent_span: 0,
            sampled: trace_id != 0,
        };
        InFlight {
            seq,
            frame: req.encode_with(&Header { seq, trace }),
            trace_id,
            span_opened: false,
            sent: false,
            rounds_waiting: 0,
            wait_rounds: 0,
            attempts: 0,
        }
    }
}

enum Link {
    /// No transport; waiting out the reconnect backoff.
    Down { backoff_left: u32 },
    /// Transport up, Hello/Resume in flight.
    Greeting,
    /// Handshake complete; user RPCs flow.
    Ready,
}

/// See the module docs. `T` is the transport the dial closure yields
/// (typically a [`crate::chaos::ChaosTransport`] in tests and benches).
pub struct ResilientClient<T: Transport, F: FnMut() -> Option<T>> {
    dial: F,
    t: Option<T>,
    link: Link,
    rng: StdRng,
    round: u64,
    consecutive_fails: u32,
    resume_denials: u32,

    /// Session identity from the last Welcome/Resumed.
    pub session_id: u64,
    session_token: Option<u64>,
    pub n_cpus: u32,

    next_seq: u32,
    greet: Option<InFlight>,
    user: Option<InFlight>,
    done: Option<Result<Response, ClientError>>,
    session_lost: bool,
    /// Unsolicited delta-stream pushes for the caller.
    pub pushes: VecDeque<Response>,

    stats: ResilientStats,
    trace: TraceSink,
    /// Sample every Nth user RPC into the causal trace (0 = off).
    trace_sample_every: u32,
}

impl<T: Transport, F: FnMut() -> Option<T>> ResilientClient<T, F> {
    /// `dial` yields a fresh transport per attempt (or `None` when the
    /// endpoint is down right now — the client backs off and retries).
    /// `seed` drives the deterministic backoff jitter.
    pub fn new(dial: F, seed: u64) -> ResilientClient<T, F> {
        ResilientClient {
            dial,
            t: None,
            link: Link::Down { backoff_left: 0 },
            rng: StdRng::seed_from_u64(seed),
            round: 0,
            consecutive_fails: 0,
            resume_denials: 0,
            session_id: 0,
            session_token: None,
            n_cpus: 0,
            next_seq: 1,
            greet: None,
            user: None,
            done: None,
            session_lost: false,
            pushes: VecDeque::new(),
            stats: ResilientStats::default(),
            trace: TraceSink::disabled(),
            trace_sample_every: 0,
        }
    }

    /// Attach a flight recorder; `ClientRetry` and `ConnReset` events
    /// land here, timestamped with the client's round counter.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Sample every Nth user RPC into a causal trace (0 disables). The
    /// trace id is derived from (session token, seq), so it is
    /// deterministic and stable across reissues and reconnects.
    pub fn set_trace_sampling(&mut self, every: u32) {
        self.trace_sample_every = every;
    }

    pub fn stats(&self) -> ResilientStats {
        self.stats
    }

    /// Enqueue one RPC. Returns false while a previous RPC is still in
    /// flight or its result has not been taken.
    pub fn begin(&mut self, req: &Request) -> bool {
        if self.user.is_some() || self.done.is_some() {
            return false;
        }
        let seq = self.alloc_seq();
        let sampled = self.trace_sample_every > 0
            && (seq as u64).is_multiple_of(self.trace_sample_every as u64);
        let trace_id = if sampled {
            span::rpc_trace_id(self.session_token.unwrap_or(0), seq as u64)
        } else {
            0
        };
        self.user = Some(InFlight::new(seq, req, trace_id));
        true
    }

    /// Take the completed RPC's result, if any.
    pub fn take_done(&mut self) -> Option<Result<Response, ClientError>> {
        self.done.take()
    }

    /// No RPC in flight and no result waiting.
    pub fn is_idle(&self) -> bool {
        self.user.is_none() && self.done.is_none()
    }

    /// True once (latched) after the session could not be resumed: the
    /// daemon no longer has its subscriptions, rebuild them.
    pub fn take_session_lost(&mut self) -> bool {
        std::mem::take(&mut self.session_lost)
    }

    fn alloc_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// One lockstep round: manage the link, drain replies, drive the
    /// in-flight RPC.
    pub fn step(&mut self) {
        self.round += 1;
        if let Link::Down { backoff_left } = &mut self.link {
            if *backoff_left > 0 {
                *backoff_left -= 1;
                return;
            }
            match (self.dial)() {
                Some(t) => {
                    self.t = Some(t);
                    self.stats.reconnects += 1;
                    self.link = Link::Greeting;
                    let greet = self.make_greet();
                    self.greet = Some(greet);
                }
                None => {
                    self.begin_backoff();
                    return;
                }
            }
        }
        self.drain_replies();
        if self.t.is_none() {
            return;
        }
        if matches!(self.link, Link::Greeting) {
            self.drive(true);
        } else if matches!(self.link, Link::Ready) {
            self.drive(false);
        }
    }

    /// Hello for a fresh session, Resume when a token is held.
    fn make_greet(&mut self) -> InFlight {
        let seq = self.alloc_seq();
        let req = match self.session_token {
            Some(session_token) => Request::Resume { session_token },
            None => Request::Hello {
                proto: PROTO_VERSION,
            },
        };
        InFlight::new(seq, &req, 0)
    }

    /// Capped exponential backoff with deterministic jitter, never
    /// less than one full round: the daemon must get a pump in to park
    /// the dead session before a Resume can find it.
    fn begin_backoff(&mut self) {
        self.consecutive_fails += 1;
        let exp = BACKOFF_BASE_ROUNDS
            .saturating_mul(1u32 << (self.consecutive_fails - 1).min(16))
            .clamp(1, BACKOFF_CAP_ROUNDS);
        let jitter = self.rng.gen_range_u64(0, exp as u64 + 1) as u32;
        self.link = Link::Down {
            backoff_left: (exp + jitter).max(1),
        };
    }

    /// The transport died: shut it down, record, and back off.
    fn on_transport_death(&mut self) {
        if let Some(mut t) = self.t.take() {
            t.shutdown();
        }
        self.stats.conn_resets += 1;
        self.trace
            .record(self.round, EventKind::ConnReset, 0, self.round, 0);
        self.greet = None;
        // The user RPC survives with its seq: it will be reissued once
        // the handshake on the next transport completes.
        if let Some(u) = &mut self.user {
            u.sent = false;
            u.rounds_waiting = 0;
        }
        self.begin_backoff();
    }

    fn drain_replies(&mut self) {
        loop {
            let Some(t) = self.t.as_mut() else { return };
            let Some(frame) = t.try_recv() else { return };
            let (header, resp) = match Response::decode_framed(&frame) {
                Ok(r) => r,
                // Corrupt reply (a header checksum mismatch included):
                // drop it; the reissue path recovers.
                Err(_) => continue,
            };
            if let Some(h) = header {
                self.on_seq_reply(h.seq, resp);
                continue;
            }
            match resp {
                Response::Overloaded { retry_after_pumps } => {
                    // Shed before it was applied: wait the hint out,
                    // then reissue the same seq.
                    self.stats.overloads += 1;
                    let inf = if matches!(self.link, Link::Greeting) {
                        self.greet.as_mut()
                    } else {
                        self.user.as_mut()
                    };
                    if let Some(inf) = inf {
                        inf.sent = false;
                        inf.rounds_waiting = 0;
                        inf.wait_rounds = inf.wait_rounds.max(retry_after_pumps.max(1));
                    }
                }
                Response::Err { code, msg } => self.on_plain_err(code, msg),
                Response::Evicted { .. } => {
                    // Evicted sessions are not parked: the token is
                    // dead and so are the subscriptions.
                    self.session_token = None;
                    self.session_lost = true;
                    self.stats.sessions_lost += 1;
                    if self.user.take().is_some() {
                        self.done = Some(Err(ClientError::Evicted {
                            reason: "session evicted".into(),
                        }));
                    }
                    self.on_transport_death();
                    return;
                }
                push @ (Response::TickKeyframe { .. } | Response::TickDelta { .. }) => {
                    self.pushes.push_back(push);
                }
                // A header-less reply outside a handshake we recognise —
                // stale or duplicated; ignore.
                _ => {}
            }
        }
    }

    fn on_seq_reply(&mut self, seq: u32, inner: Response) {
        if self.greet.as_ref().is_some_and(|g| g.seq == seq) {
            self.greet = None;
            self.on_greet_reply(inner);
            return;
        }
        if self.user.as_ref().is_some_and(|u| u.seq == seq) {
            let trace_id = self.user.as_ref().map_or(0, |u| u.trace_id);
            if trace_id != 0 {
                self.trace
                    .record(self.round, EventKind::SpanEnd, span::CLIENT, trace_id, 0);
            }
            self.user = None;
            self.stats.completed += 1;
            self.done = Some(match inner {
                Response::Err { code, msg } => Err(ClientError::Daemon { code, msg }),
                ok => Ok(ok),
            });
        }
        // Else: a stale duplicate from an earlier reissue; ignore.
    }

    fn on_greet_reply(&mut self, inner: Response) {
        match inner {
            Response::Welcome {
                session_id,
                session_token,
                n_cpus,
                ..
            } => {
                self.session_id = session_id;
                self.session_token = Some(session_token);
                self.n_cpus = n_cpus;
                self.consecutive_fails = 0;
                self.resume_denials = 0;
                self.link = Link::Ready;
            }
            Response::Resumed {
                session_id,
                session_token,
                gap_pumps,
                ..
            } => {
                self.session_id = session_id;
                self.session_token = Some(session_token);
                self.stats.resumes += 1;
                self.stats.gap_pumps += gap_pumps;
                self.consecutive_fails = 0;
                self.resume_denials = 0;
                self.link = Link::Ready;
            }
            Response::Err { code, .. } if code == errcode::NO_SUCH_TOKEN => {
                self.resume_denials += 1;
                if self.resume_denials > RESUME_GRACE {
                    // Token gone for good: start a fresh session and
                    // tell the caller its subscriptions died with it.
                    self.session_token = None;
                    self.session_lost = true;
                    self.stats.sessions_lost += 1;
                    self.resume_denials = 0;
                }
                // Re-greet (Resume again within grace — the daemon may
                // simply not have parked the old session yet — or
                // Hello after). A fresh seq: the old one's reply is
                // cached as the denial.
                let mut greet = self.make_greet();
                greet.wait_rounds = 1;
                self.greet = Some(greet);
            }
            Response::Err { code, msg } => {
                // BAD_PROTO and friends: not recoverable by retrying.
                self.stats.give_ups += 1;
                if self.user.take().is_some() || self.done.is_none() {
                    self.done = Some(Err(ClientError::Daemon { code, msg }));
                }
                self.link = Link::Down {
                    backoff_left: u32::MAX,
                };
                if let Some(mut t) = self.t.take() {
                    t.shutdown();
                }
            }
            _ => {
                // Wrong-shaped greet reply: reissue the handshake.
                let greet = self.make_greet();
                self.greet = Some(greet);
            }
        }
    }

    fn on_plain_err(&mut self, code: u16, _msg: String) {
        // A typed refusal without a header (the daemon could not trust
        // the seq): BAD_CHECKSUM / BAD_FRAME mean our request was
        // mangled in flight — reissue the in-flight seq right away.
        if code == errcode::BAD_CHECKSUM || code == errcode::BAD_FRAME {
            let inf = if matches!(self.link, Link::Greeting) {
                self.greet.as_mut()
            } else {
                self.user.as_mut()
            };
            if let Some(inf) = inf {
                inf.sent = false;
                inf.rounds_waiting = 0;
            }
        }
    }

    /// Drive the greet (handshake) or user in-flight record.
    fn drive(&mut self, greeting: bool) {
        enum Act {
            Nothing,
            Send {
                frame: Vec<u8>,
                seq: u32,
                attempts: u32,
                trace_id: u64,
            },
            GaveUp,
        }
        let act = {
            let Some(inf) = (if greeting {
                self.greet.as_mut()
            } else {
                self.user.as_mut()
            }) else {
                return;
            };
            if inf.wait_rounds > 0 {
                inf.wait_rounds -= 1;
                Act::Nothing
            } else if !inf.sent {
                inf.sent = true;
                inf.rounds_waiting = 0;
                let open_span = inf.trace_id != 0 && !inf.span_opened;
                inf.span_opened = true;
                Act::Send {
                    frame: inf.frame.clone(),
                    seq: inf.seq,
                    attempts: inf.attempts,
                    trace_id: if open_span { inf.trace_id } else { 0 },
                }
            } else {
                inf.rounds_waiting += 1;
                if inf.rounds_waiting > RPC_TIMEOUT_ROUNDS {
                    inf.attempts += 1;
                    if inf.attempts >= MAX_ATTEMPTS {
                        Act::GaveUp
                    } else {
                        // Reissue next step (same seq — the dedup cache
                        // makes this safe even if the previous copy was
                        // actually applied).
                        inf.sent = false;
                        Act::Nothing
                    }
                } else {
                    Act::Nothing
                }
            }
        };
        match act {
            Act::Nothing => {}
            Act::Send {
                frame,
                seq,
                attempts,
                trace_id,
            } => {
                // The span opens at first send only: reissues extend the
                // one open slice instead of unbalancing Begin/End pairs.
                if trace_id != 0 && !greeting {
                    self.trace
                        .record(self.round, EventKind::SpanBegin, span::CLIENT, trace_id, 0);
                }
                if attempts > 0 {
                    self.stats.retries += 1;
                    self.trace
                        .record(self.round, EventKind::ClientRetry, attempts, seq as u64, 0);
                }
                let send_failed = self
                    .t
                    .as_mut()
                    .map(|t| t.send(frame).is_err())
                    .unwrap_or(true);
                if send_failed {
                    self.on_transport_death();
                }
            }
            Act::GaveUp => {
                self.stats.give_ups += 1;
                if greeting {
                    self.greet = None;
                    self.on_transport_death();
                } else {
                    let trace_id = self.user.as_ref().map_or(0, |u| u.trace_id);
                    if trace_id != 0 {
                        self.trace.record(
                            self.round,
                            EventKind::SpanEnd,
                            span::CLIENT,
                            trace_id,
                            0,
                        );
                    }
                    self.user = None;
                    self.done = Some(Err(ClientError::Timeout));
                }
            }
        }
    }
}

/// Blocking convenience for tests and tools that just want the answer:
/// step until the RPC completes or `max_rounds` elapse, sleeping
/// `round_wait` per round (pair with a daemon pumped from another
/// thread).
pub fn run_to_completion<T: Transport, F: FnMut() -> Option<T>>(
    c: &mut ResilientClient<T, F>,
    req: &Request,
    max_rounds: u64,
    round_wait: Duration,
) -> Result<Response, ClientError> {
    assert!(c.begin(req), "an RPC is already in flight");
    for _ in 0..max_rounds {
        c.step();
        if let Some(done) = c.take_done() {
            return done;
        }
        std::thread::sleep(round_wait);
    }
    Err(ClientError::Timeout)
}
