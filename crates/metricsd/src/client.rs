//! `metrics-client` — the client library over any frame transport.
//!
//! [`MetricsClient`] wraps a [`Transport`] (the in-process
//! [`ClientPipe`] or the TCP transport in [`crate::tcp`]) with typed
//! request/response calls. Two usage styles:
//!
//! * blocking RPC (`hello`, `read`, …) — each call sends one request
//!   and waits for the matching reply; used by tools and tests.
//! * posted I/O (`post` + `try_take`) — fire requests without waiting,
//!   drain replies later; used by `loadgen` to keep thousands of
//!   sessions in flight against the daemon's lockstep pump.

use std::time::Duration;

use simtrace::{span, EventKind, TraceConfig, TraceSink, Track};

use crate::queue::{ClientPipe, PushError};
use crate::wire::{stream_crc, Header, Request, Response, TraceCtx, WireError, PROTO_VERSION};

/// How long a blocking RPC waits for its reply.
const RPC_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug)]
pub enum ClientError {
    /// Transport refused the frame (backpressure or closed connection).
    Send(&'static str),
    /// No reply within the timeout.
    Timeout,
    /// Reply failed to decode.
    Wire(WireError),
    /// The daemon answered with an error response.
    Daemon { code: u16, msg: String },
    /// The daemon evicted this session.
    Evicted { reason: String },
    /// Got a structurally valid but contextually wrong reply.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Send(w) => write!(f, "send failed: {w}"),
            ClientError::Timeout => write!(f, "timed out waiting for reply"),
            ClientError::Wire(e) => write!(f, "bad reply frame: {e}"),
            ClientError::Daemon { code, msg } => write!(f, "daemon error {code}: {msg}"),
            ClientError::Evicted { reason } => write!(f, "evicted: {reason}"),
            ClientError::Unexpected(w) => write!(f, "unexpected reply: {w}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

/// A bidirectional frame transport.
pub trait Transport {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), ClientError>;
    fn recv(&mut self, timeout: Duration) -> Option<Vec<u8>>;
    fn try_recv(&mut self) -> Option<Vec<u8>>;
    /// Tear the connection down from the client side. After this the
    /// daemon sees an unclean transport death (parking the session for
    /// resume) rather than an orderly `Close`. Default is a no-op for
    /// transports with nothing to release.
    fn shutdown(&mut self) {}
}

impl Transport for ClientPipe {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), ClientError> {
        ClientPipe::send(self, frame).map_err(|e| match e {
            PushError::Full => ClientError::Send("inbox full"),
            PushError::Closed => ClientError::Send("connection closed"),
            PushError::TooBig => ClientError::Send("frame exceeds MAX_FRAME"),
        })
    }

    fn recv(&mut self, timeout: Duration) -> Option<Vec<u8>> {
        self.recv_blocking(timeout)
    }

    fn try_recv(&mut self) -> Option<Vec<u8>> {
        ClientPipe::try_recv(self)
    }

    fn shutdown(&mut self) {
        // Closing our tx is what the daemon's reaper reads as a dead
        // transport (inbox closed + drained).
        self.tx.close();
    }
}

/// A client session.
pub struct MetricsClient<T: Transport> {
    t: T,
    /// Session id assigned by the daemon's Welcome.
    pub session_id: u64,
    /// Resume token from the Welcome — pass it in `Request::Resume` to
    /// pick the session back up after a transport death.
    pub session_token: u64,
    /// CPU count reported at Hello.
    pub n_cpus: u32,
    /// Sim time of the newest snapshot seen in any reply — the client's
    /// clock for stamping `submit_ns`.
    pub last_seen_ns: u64,
    /// Client-side flight recorder for causal spans (disabled by
    /// default: tracing costs one branch per call).
    trace: TraceSink,
    /// Sample every Nth RPC when tracing (0 = trace nothing).
    sample_every: u32,
    /// Monotonic client-side request sequence — with the session token,
    /// the seed of every sampled request's deterministic trace id.
    rpcs: u64,
}

impl<T: Transport> MetricsClient<T> {
    /// Wrap a transport; call [`MetricsClient::hello`] before anything
    /// else.
    pub fn new(t: T) -> MetricsClient<T> {
        MetricsClient {
            t,
            session_id: 0,
            session_token: 0,
            n_cpus: 0,
            last_seen_ns: 0,
            trace: TraceSink::disabled(),
            sample_every: 0,
            rpcs: 0,
        }
    }

    /// Enable causal tracing: every `sample_every`-th RPC carries its
    /// trace context in the frame [`Header`] (trace id derived from the
    /// session token and the request sequence — seeded sim state, never
    /// wall clock) and records linked `rpc:client` spans here.
    pub fn enable_tracing(&mut self, cfg: &TraceConfig, sample_every: u32) {
        self.trace = TraceSink::new(cfg);
        self.sample_every = sample_every;
    }

    /// The client-side span track for export.
    pub fn trace_track(&self) -> Track {
        Track::new("client", self.trace.events())
    }

    /// Fire a request without waiting for the reply.
    pub fn post(&mut self, req: &Request) -> Result<(), ClientError> {
        self.t.send(req.encode())
    }

    /// As [`MetricsClient::post`], sampling every Nth request into the
    /// causal trace (see [`MetricsClient::enable_tracing`]). Returns
    /// the trace id when sampled, 0 otherwise. The client hop is an
    /// instantaneous span at post time: lockstep drivers drain replies
    /// out of band, so there is no reply to close a longer slice
    /// against — the flow arrows into the daemon hops still link.
    pub fn post_traced(&mut self, req: &Request) -> Result<u64, ClientError> {
        match self.sample_rpc(req) {
            Some((frame, trace_id)) => {
                let now = self.last_seen_ns;
                self.trace
                    .record(now, EventKind::SpanBegin, span::CLIENT, trace_id, 0);
                self.trace
                    .record(now, EventKind::SpanEnd, span::CLIENT, trace_id, 0);
                self.t.send(frame)?;
                Ok(trace_id)
            }
            None => {
                self.post(req)?;
                Ok(0)
            }
        }
    }

    /// Non-blocking: decode the next pending reply, if any.
    pub fn try_take(&mut self) -> Result<Option<Response>, ClientError> {
        match self.t.try_recv() {
            None => Ok(None),
            Some(frame) => {
                let resp = Response::decode(&frame)?;
                self.observe(&resp);
                Ok(Some(resp))
            }
        }
    }

    /// Blocking: decode the next reply or time out.
    pub fn take(&mut self) -> Result<Response, ClientError> {
        match self.t.recv(RPC_TIMEOUT) {
            None => Err(ClientError::Timeout),
            Some(frame) => {
                let resp = Response::decode(&frame)?;
                self.observe(&resp);
                Ok(resp)
            }
        }
    }

    fn observe(&mut self, resp: &Response) {
        match resp {
            Response::Counters { time_ns, .. } | Response::TickKeyframe { time_ns, .. } => {
                self.last_seen_ns = self.last_seen_ns.max(*time_ns);
            }
            _ => {}
        }
        // Stream pushes carry no header: the receipt span derives the
        // snapshot's flow id from the tick, exactly as the collector
        // and the pushing daemon did, so the hops link without any wire
        // bytes.
        if self.trace.enabled() {
            if let Response::TickKeyframe { tick, .. } | Response::TickDelta { tick, .. } = resp {
                let flow = span::snapshot_flow_id(*tick);
                let t = self.last_seen_ns;
                self.trace
                    .record(t, EventKind::SpanBegin, span::PUSH, flow, 0);
                self.trace
                    .record(t, EventKind::SpanEnd, span::PUSH, flow, 0);
            }
        }
    }

    /// If this call is sampled, the request encoded with its trace
    /// context and the trace id; otherwise `None` (the caller sends the
    /// plain request).
    fn sample_rpc(&mut self, req: &Request) -> Option<(Vec<u8>, u64)> {
        self.rpcs += 1;
        if !self.trace.enabled()
            || self.sample_every == 0
            || !self.rpcs.is_multiple_of(self.sample_every as u64)
        {
            return None;
        }
        let trace_id = span::rpc_trace_id(self.session_token, self.rpcs);
        let header = Header {
            seq: 0,
            trace: TraceCtx {
                trace_id,
                parent_span: 0,
                sampled: true,
            },
        };
        Some((req.encode_with(&header), trace_id))
    }

    fn rpc(&mut self, req: &Request) -> Result<Response, ClientError> {
        let resp = match self.sample_rpc(req) {
            Some((frame, trace_id)) => {
                self.trace.record(
                    self.last_seen_ns,
                    EventKind::SpanBegin,
                    span::CLIENT,
                    trace_id,
                    0,
                );
                self.t.send(frame)?;
                let resp = self.take();
                self.trace.record(
                    self.last_seen_ns,
                    EventKind::SpanEnd,
                    span::CLIENT,
                    trace_id,
                    0,
                );
                resp?
            }
            None => {
                self.post(req)?;
                self.take()?
            }
        };
        match resp {
            Response::Err { code, msg } => Err(ClientError::Daemon { code, msg }),
            Response::Evicted { reason } => Err(ClientError::Evicted { reason }),
            other => Ok(other),
        }
    }

    /// Handshake; must be the first call on a session.
    pub fn hello(&mut self) -> Result<(), ClientError> {
        match self.rpc(&Request::Hello {
            proto: PROTO_VERSION,
        })? {
            Response::Welcome {
                session_id,
                session_token,
                n_cpus,
                ..
            } => {
                self.session_id = session_id;
                self.session_token = session_token;
                self.n_cpus = n_cpus;
                Ok(())
            }
            _ => Err(ClientError::Unexpected("wanted Welcome")),
        }
    }

    /// Subscribe to a metric set over a CPU bitmask; returns the sub id.
    pub fn subscribe(&mut self, cpu_mask: u64, metrics: u8) -> Result<u32, ClientError> {
        match self.rpc(&Request::Subscribe { cpu_mask, metrics })? {
            Response::Subscribed { sub_id, .. } => Ok(sub_id),
            _ => Err(ClientError::Unexpected("wanted Subscribed")),
        }
    }

    /// Read a subscription's deltas since baseline.
    pub fn read(&mut self, sub_id: u32) -> Result<Response, ClientError> {
        let submit_ns = self.last_seen_ns;
        match self.rpc(&Request::Read { sub_id, submit_ns })? {
            r @ Response::Counters { .. } => Ok(r),
            _ => Err(ClientError::Unexpected("wanted Counters")),
        }
    }

    /// Ask the daemon to push delta-encoded tick frames every
    /// `every_pumps` pumps (0 disables). Feed the pushed
    /// `TickKeyframe`/`TickDelta` frames to a [`StreamMirror`].
    pub fn stream_deltas(&mut self, every_pumps: u32) -> Result<(), ClientError> {
        match self.rpc(&Request::StreamDeltas { every_pumps })? {
            Response::Subscribed { .. } => Ok(()),
            _ => Err(ClientError::Unexpected("wanted ack")),
        }
    }

    /// The daemon's self-metrics registry view: named counters plus
    /// histogram summaries, frozen at the serving pump's start.
    #[allow(clippy::type_complexity)]
    pub fn self_metrics(
        &mut self,
    ) -> Result<(Vec<(String, u64)>, Vec<crate::wire::HistSummary>), ClientError> {
        match self.rpc(&Request::GetSelfMetrics)? {
            Response::SelfMetrics { counters, hists } => Ok((counters, hists)),
            _ => Err(ClientError::Unexpected("wanted SelfMetrics")),
        }
    }

    /// Close the session (best-effort; the daemon reaps it next pump).
    pub fn close(&mut self) -> Result<(), ClientError> {
        match self.rpc(&Request::Close)? {
            Response::Closed => Ok(()),
            _ => Err(ClientError::Unexpected("wanted Closed")),
        }
    }
}

/// What [`StreamMirror::apply`] did with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MirrorOutcome {
    /// The frame advanced the mirror.
    Applied,
    /// The frame could not be applied (unsynced mirror, base-tick gap,
    /// CPU-count mismatch, or CRC failure after apply). The mirror is
    /// now unsynced; send [`Request::AckTick`] with `tick == 0` to nack
    /// and the daemon will push a keyframe.
    NeedKeyframe,
    /// Not a stream frame; the caller should handle it itself.
    NotStream,
}

/// Client-side reconstruction of the daemon's per-tick counter state
/// from a delta-encoded push stream.
///
/// Feed every pushed [`Response`] through [`StreamMirror::apply`]:
/// keyframes (re)establish the full state, deltas advance it, and the
/// per-frame CRC — computed by the daemon over the post-apply state —
/// proves the reconstruction is bit-exact. Any gap flips the mirror to
/// unsynced until the next keyframe; deltas carry no online-flag
/// changes (a hotplug forces a keyframe on the daemon side via the
/// CRC/nack path, since frozen counters no longer match).
#[derive(Debug, Default, Clone)]
pub struct StreamMirror {
    /// True once a keyframe has landed and every frame since applied.
    pub synced: bool,
    /// Tick of the last applied frame.
    pub tick: u64,
    /// Sim time of the last applied frame.
    pub time_ns: u64,
    /// Package temperature (milli-°C) at `tick`.
    pub temp_mc: i64,
    /// Cumulative package energy (µJ) at `tick`.
    pub energy_uj: u64,
    /// Per-CPU cumulative (instructions, cycles) at `tick`.
    pub cpus: Vec<(u64, u64)>,
    /// Per-CPU online flags as of the last keyframe.
    pub online: Vec<bool>,
    /// Keyframes applied.
    pub keyframes: u64,
    /// Deltas applied.
    pub deltas: u64,
    /// Frames that forced a resync (gap or CRC mismatch).
    pub desyncs: u64,
}

impl StreamMirror {
    pub fn new() -> StreamMirror {
        StreamMirror::default()
    }

    /// Apply one pushed frame. See [`MirrorOutcome`].
    pub fn apply(&mut self, resp: &Response) -> MirrorOutcome {
        match resp {
            Response::TickKeyframe {
                tick,
                time_ns,
                temp_mc,
                energy_uj,
                crc,
                cpus,
            } => {
                self.tick = *tick;
                self.time_ns = *time_ns;
                self.temp_mc = *temp_mc;
                self.energy_uj = *energy_uj;
                self.cpus = cpus.iter().map(|c| (c.instructions, c.cycles)).collect();
                self.online = cpus.iter().map(|c| c.online).collect();
                if stream_crc(self.tick, self.energy_uj, &self.cpus) != *crc {
                    self.synced = false;
                    self.desyncs += 1;
                    return MirrorOutcome::NeedKeyframe;
                }
                self.synced = true;
                self.keyframes += 1;
                MirrorOutcome::Applied
            }
            Response::TickDelta {
                base_tick,
                tick,
                d_time_ns,
                temp_mc,
                d_energy_uj,
                crc,
                cpu_deltas,
            } => {
                if !self.synced || *base_tick != self.tick || cpu_deltas.len() != self.cpus.len() {
                    self.synced = false;
                    self.desyncs += 1;
                    return MirrorOutcome::NeedKeyframe;
                }
                self.tick = *tick;
                self.time_ns += *d_time_ns;
                self.temp_mc = *temp_mc;
                self.energy_uj = self.energy_uj.wrapping_add(*d_energy_uj as u64);
                for ((ins, cyc), (d_ins, d_cyc)) in self.cpus.iter_mut().zip(cpu_deltas) {
                    *ins = ins.wrapping_add(*d_ins as u64);
                    *cyc = cyc.wrapping_add(*d_cyc as u64);
                }
                if stream_crc(self.tick, self.energy_uj, &self.cpus) != *crc {
                    self.synced = false;
                    self.desyncs += 1;
                    return MirrorOutcome::NeedKeyframe;
                }
                self.deltas += 1;
                MirrorOutcome::Applied
            }
            _ => MirrorOutcome::NotStream,
        }
    }
}
