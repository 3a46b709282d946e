//! The length-prefixed binary wire protocol.
//!
//! Every frame is `[u32 payload_len LE][u8 tag][payload]`. Integers are
//! little-endian; strings are `u16 len + UTF-8 bytes`. The same framing
//! runs over both transports (in-process queues carry one decoded frame
//! per `Vec<u8>`; TCP carries the byte stream and re-frames on read).
//!
//! Requests (client → daemon) use tags `0x01..=0x3f`, responses
//! `0x80..=0xbf`. An unknown request tag decodes to
//! [`WireError::UNKNOWN_TAG`] and is answered with an `UNKNOWN_TAG`
//! [`Response::Err`], not a dropped connection — version skew degrades,
//! it does not wedge. Retired tags stay unassigned; no tag is renumbered.
//!
//! A frame may carry the fixed [`Header`] (tag bit [`HEADER_BIT`]):
//! `[u32 len][u8 tag|0x40][u64 crc][u32 seq][u64 trace_id]
//! [u32 parent_span][u8 sampled][payload]`, where `crc` is [`fnv64`]
//! over the tag byte and every byte after the crc field. A frame
//! without the bit has exactly the layout above.

/// Protocol version spoken by this build.
pub const PROTO_VERSION: u16 = 4;

/// Tag bit marking a frame that carries the [`Header`], on requests and
/// replies alike. No message tag has it set.
pub const HEADER_BIT: u8 = 0x40;

/// Bytes the header adds after the tag: crc, seq, trace id, parent
/// span, sampled flag.
const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 1;

/// Hard cap on one frame's payload; a frame above this is a framing
/// error (protects the TCP reader from a corrupt length prefix).
pub const MAX_FRAME: usize = 1 << 20;

/// Counter metrics a subscription can select, as a bitmask.
pub mod metrics {
    pub const INSTRUCTIONS: u8 = 1 << 0;
    pub const CYCLES: u8 = 1 << 1;
    /// Package energy (µJ, unwrapped since subscribe).
    pub const ENERGY_PKG: u8 = 1 << 2;
    pub const ALL: u8 = INSTRUCTIONS | CYCLES | ENERGY_PKG;

    /// Iterate set bits in ascending metric order (wire order).
    pub fn iter(mask: u8) -> impl Iterator<Item = u8> {
        [INSTRUCTIONS, CYCLES, ENERGY_PKG]
            .into_iter()
            .filter(move |m| mask & m != 0)
    }
}

/// History series a [`Request::QueryRange`] can name. Counter series
/// aggregate with `SUM`/`RATE`; `LATENCY_NS` is a histogram series and
/// aggregates with the percentile aggregations.
pub mod series {
    /// Reads served per pump (counter).
    pub const READS: u8 = 0;
    /// Reads answered with degraded quality per pump (counter).
    pub const STALE_READS: u8 = 1;
    /// Sessions evicted per pump (counter).
    pub const EVICTIONS: u8 = 2;
    /// Requests shed under overload per pump (counter).
    pub const SHEDS: u8 = 3;
    /// Read-latency histogram per pump (log₂ buckets, ns).
    pub const LATENCY_NS: u8 = 4;
    /// Instructions retired per pump on cluster 0 / cluster 1 (counter;
    /// cluster 1 reads as zero on homogeneous machines).
    pub const CLUSTER0_INSTRUCTIONS: u8 = 5;
    pub const CLUSTER1_INSTRUCTIONS: u8 = 6;
    /// Cycles per pump on cluster 0 / cluster 1 (counter).
    pub const CLUSTER0_CYCLES: u8 = 7;
    pub const CLUSTER1_CYCLES: u8 = 8;
    /// One past the last valid series id.
    pub const COUNT: u8 = 9;
}

/// Aggregations a [`Request::QueryRange`] can ask for.
pub mod agg {
    /// Per-frame sums, one point per surviving rollup frame.
    pub const SUM: u8 = 0;
    /// Events per simulated second over the whole range (single point).
    pub const RATE: u8 = 1;
    /// Percentiles of the merged histogram over the whole range
    /// (single point). Only valid on histogram series.
    pub const P50: u8 = 2;
    pub const P90: u8 = 3;
    pub const P99: u8 = 4;
    /// One past the last valid aggregation id.
    pub const COUNT: u8 = 5;
}

/// Hard cap on points in one [`Response::RangeReply`] — the query path
/// downsamples to a coarser tier rather than exceed it, so a reply
/// frame stays bounded no matter the range.
pub const MAX_RANGE_POINTS: usize = 512;

/// Hard cap on SLO rows in one [`Response::Health`] frame.
pub const MAX_SLOS: usize = 64;

/// Causal trace context carried in the [`Header`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Flow id linking every hop's spans (see `simtrace::span` — even,
    /// derived from session token + client sequence, never wall clock).
    pub trace_id: u64,
    /// The client-side span ordinal that sent this request (0 = root).
    pub parent_span: u32,
    /// Sampling bit: hops record spans only when set, so an enabled
    /// recorder with sampling off still costs one branch per frame.
    pub sampled: bool,
}

/// The optional fixed frame header: one checksum over the tag, the
/// sequence id, the trace context and the payload, so corruption in
/// transit decodes to [`WireError::CHECKSUM`] instead of silently
/// becoming a different valid frame — or the same request under a
/// different seq. A reply carries the header exactly when its request
/// did, echoing the request's seq and trace context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Header {
    /// Idempotent-reissue id: the daemon applies a request once per
    /// nonzero seq and answers a reissue of it from its reply cache.
    /// 0 = no dedup.
    pub seq: u32,
    /// Causal trace context (all zero = untraced).
    pub trace: TraceCtx,
}

impl Header {
    /// Re-frame an encoded header-less frame (request or response)
    /// with this header.
    pub(crate) fn wrap(&self, frame: &[u8]) -> Vec<u8> {
        let payload = &frame[5..];
        let mut out = Vec::with_capacity(frame.len() + HEADER_LEN);
        out.extend_from_slice(&((1 + HEADER_LEN + payload.len()) as u32).to_le_bytes());
        out.push(frame[4] | HEADER_BIT);
        out.extend_from_slice(&[0; 8]);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.trace.trace_id.to_le_bytes());
        out.extend_from_slice(&self.trace.parent_span.to_le_bytes());
        out.push(u8::from(self.trace.sampled));
        out.extend_from_slice(payload);
        let crc = header_crc(&out);
        out[5..13].copy_from_slice(&crc.to_le_bytes());
        out
    }
}

/// The header checksum of a header frame: the tag byte, then
/// everything after the crc field.
fn header_crc(frame: &[u8]) -> u64 {
    fnv64_extend(fnv64(&frame[4..5]), &frame[13..])
}

/// One SLO's evaluation state in a [`Response::Health`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloHealth {
    /// Target kind (0 = p99 latency ns, 1 = evictions per window,
    /// 2 = stale-read fraction in ppm) — mirrors `history::SloKind`.
    pub kind: u8,
    /// The declared target value in the kind's unit.
    pub target: u64,
    /// Trailing evaluation window, in pumps.
    pub window_pumps: u32,
    /// Windows evaluated in breach so far.
    pub breaches: u64,
    /// Pump index of the most recent breach (0 = never).
    pub last_breach_pump: u64,
    /// Worst observed value across breached windows.
    pub worst: u64,
    /// trace_id of the slowest sampled request inside the most recently
    /// breached window (0 = none was sampled) — resolves to recorded
    /// `SpanBegin`/`SpanEnd` events on the client and serving tracks.
    pub exemplar_trace_id: u64,
}

/// FNV-1a over a byte slice — the [`Header`] checksum. Any single
/// changed byte changes the hash: each step is a bijection of the
/// running state.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(0xcbf29ce484222325, bytes)
}

fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Checksum over the counter state a delta stream describes: the client
/// mirror recomputes this after applying every [`Response::TickDelta`]
/// or [`Response::TickKeyframe`], so a desynchronised mirror (lost or
/// corrupted delta) is detected immediately instead of drifting.
///
/// FNV-1a with one step per 64-bit word of the state. Each step is a
/// bijection of the running state, so a change confined to any one word
/// changes the checksum.
pub fn stream_crc(tick: u64, energy_uj: u64, cpus: &[(u64, u64)]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(tick);
    mix(energy_uj);
    for &(ins, cyc) in cpus {
        mix(ins);
        mix(cyc);
    }
    h
}

/// Client → daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake; must be the session's first frame.
    Hello { proto: u16 },
    /// Start a counter subscription over a CPU set.
    Subscribe { cpu_mask: u64, metrics: u8 },
    /// Read a subscription's counters (delta since subscribe).
    /// `submit_ns` is the client's last-seen snapshot time, echoed into
    /// the reply's latency figure.
    Read { sub_id: u32, submit_ns: u64 },
    /// Orderly goodbye.
    Close,
    /// The daemon's self-metrics registry: named counters plus
    /// histogram summaries (count/min/max/p50/p90/p99).
    GetSelfMetrics,
    /// Reconnect handshake: continue a lost session from its cursor.
    /// Valid as a session's first frame (instead of Hello); answered
    /// with [`Response::Resumed`] carrying the explicit gap, or a
    /// `NO_SUCH_TOKEN` error once the token's TTL has lapsed.
    Resume { session_token: u64 },
    /// Subscribe to the delta-encoded snapshot stream: every
    /// `every_pumps` pumps (0 cancels) the daemon pushes a
    /// [`Response::TickDelta`] against the session's last-pushed base
    /// tick, falling back to a [`Response::TickKeyframe`] on any gap
    /// (first push, missed push under backpressure, session resume, or
    /// a client nack via [`Request::AckTick`]).
    StreamDeltas { every_pumps: u32 },
    /// Delta-stream cursor ack/nack: tells the daemon which tick the
    /// client mirror actually holds. A desynchronised mirror sends its
    /// own (older) tick, which can no longer match the next delta's
    /// base — forcing a keyframe.
    AckTick { tick: u64 },
    /// Ranged query over the daemon's rollup history: aggregate
    /// `series` with `agg` over snapshot ticks `[start_tick, end_tick]`
    /// (inclusive), returning at most `max_points` points (clamped to
    /// [`MAX_RANGE_POINTS`]; the daemon picks the finest downsampling
    /// tier that fits).
    QueryRange {
        series: u8,
        agg: u8,
        start_tick: u64,
        end_tick: u64,
        max_points: u32,
    },
    /// The SLO watchdog's current breach state.
    GetHealth,
}

/// Per-metric value in a counters reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricValue {
    pub metric: u8,
    pub value: u64,
}

/// One CPU's absolute counter state in a [`Response::TickKeyframe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuKeyframe {
    pub online: bool,
    pub instructions: u64,
    pub cycles: u64,
}

/// One histogram's summary in a [`Response::SelfMetrics`] reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSummary {
    pub name: String,
    pub count: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

/// Daemon → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Welcome {
        session_id: u64,
        proto: u16,
        n_cpus: u32,
        tick_ns: u64,
        /// Opaque credential for [`Request::Resume`] after a transport
        /// loss; the daemon parks a dead session's state under this
        /// token for `resume_ttl_pumps`.
        session_token: u64,
    },
    Subscribed {
        sub_id: u32,
        base_tick: u64,
    },
    Counters {
        sub_id: u32,
        tick: u64,
        time_ns: u64,
        latency_ns: u64,
        /// papi::ReadQuality as 0=Ok, 1=Scaled, 2=Lost.
        quality: u8,
        values: Vec<MetricValue>,
    },
    Err {
        code: u16,
        msg: String,
    },
    /// Pushed (best-effort) when the daemon evicts a slow consumer.
    Evicted {
        reason: String,
    },
    Closed,
    SelfMetrics {
        counters: Vec<(String, u64)>,
        hists: Vec<HistSummary>,
    },
    /// Ack for [`Request::Resume`]: the session continues from its
    /// parked cursor. `gap_pumps > 0` means snapshots were published
    /// while the client was away — the explicit loss marker (resumed
    /// subscriptions additionally read as `ReadQuality::Scaled`; a client
    /// re-baselines by subscribing again).
    Resumed {
        session_id: u64,
        session_token: u64,
        cur_tick: u64,
        gap_pumps: u64,
    },
    /// Typed load-shed: the daemon refused to serve this request under
    /// overload (pump budget exhausted or inbox deadline exceeded).
    /// The request was NOT applied; retry after `retry_after_pumps`.
    Overloaded {
        retry_after_pumps: u32,
    },
    /// Delta-stream keyframe: the full per-CPU counter state at `tick`.
    /// Pushed when the daemon cannot prove the client holds the
    /// previous tick (stream start, backpressure gap, resume, nack).
    /// `crc` is [`stream_crc`] over the carried state.
    TickKeyframe {
        tick: u64,
        time_ns: u64,
        temp_mc: i64,
        energy_uj: u64,
        crc: u64,
        cpus: Vec<CpuKeyframe>,
    },
    /// Delta-stream increment from `base_tick` (the previously
    /// published tick) to `tick`. Counter deltas are zigzag varints of
    /// the wrapping difference, so frozen (offline) CPUs cost one byte
    /// each and counter wraps stay exact. `crc` is [`stream_crc`] over
    /// the *post-apply* state — the client mirror verifies it after
    /// applying and nacks on mismatch.
    TickDelta {
        base_tick: u64,
        tick: u64,
        d_time_ns: u64,
        temp_mc: i64,
        d_energy_uj: i64,
        crc: u64,
        cpu_deltas: Vec<(i64, i64)>,
    },
    /// Reply to [`Request::QueryRange`]: `points` are `(tick, value)`
    /// pairs from downsampling `tier` (0 = per-pump). For the
    /// percentile aggregations a single point carries the merged
    /// percentile and `count`/`min`/`max` describe the merged histogram
    /// (the loadgen cross-check asserts all four against its local
    /// histogram, ±0).
    RangeReply {
        series: u8,
        agg: u8,
        tier: u8,
        count: u64,
        min: u64,
        max: u64,
        points: Vec<(u64, u64)>,
    },
    /// Reply to [`Request::GetHealth`]: one row per configured SLO,
    /// frozen once per pump.
    Health {
        pumps: u64,
        slos: Vec<SloHealth>,
    },
}

/// Error codes carried by [`Response::Err`].
pub mod errcode {
    pub const BAD_FRAME: u16 = 1;
    pub const BAD_PROTO: u16 = 2;
    pub const NO_SUCH_SUB: u16 = 3;
    pub const UNKNOWN_TAG: u16 = 4;
    pub const NOT_HELLOED: u16 = 5;
    pub const EMPTY_MASK: u16 = 6;
    /// A frame's [`super::Header`] checksum did not match — corruption in
    /// transit; nothing was applied, reissue the request.
    pub const BAD_CHECKSUM: u16 = 7;
    /// `Resume` named a token the daemon does not hold (expired TTL,
    /// never issued, or already reaped).
    pub const NO_SUCH_TOKEN: u16 = 8;
    /// A `QueryRange` named an unknown series/aggregation, an inverted
    /// range, or asked for zero points.
    pub const BAD_QUERY: u16 = 9;
}

// ---- encoding --------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(tag: u8) -> Enc {
        // Length prefix patched in finish().
        let mut buf = Vec::with_capacity(32);
        buf.extend_from_slice(&[0, 0, 0, 0, tag]);
        Enc { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        let b = s.as_bytes();
        self.u16(b.len().min(u16::MAX as usize) as u16);
        self.buf
            .extend_from_slice(&b[..b.len().min(u16::MAX as usize)]);
    }

    /// LEB128: small counter deltas cost one byte instead of eight.
    fn vu64(&mut self, mut v: u64) {
        loop {
            let mut b = (v & 0x7f) as u8;
            v >>= 7;
            if v != 0 {
                b |= 0x80;
            }
            self.buf.push(b);
            if v == 0 {
                break;
            }
        }
    }

    /// Zigzag + LEB128 for signed deltas (frozen counters encode as one
    /// zero byte; wrapping differences stay exact).
    fn vi64(&mut self, v: i64) {
        self.vu64(((v << 1) ^ (v >> 63)) as u64);
    }

    fn finish(mut self) -> Vec<u8> {
        let payload = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&payload.to_le_bytes());
        self.buf
    }
}

struct Dec<'a> {
    b: &'a [u8],
    i: usize,
}

/// A frame that failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub &'static str);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// A [`Header`] whose checksum does not match the frame.
    pub const CHECKSUM: WireError = WireError("header checksum mismatch");
    /// A request tag this protocol version does not assign.
    pub const UNKNOWN_TAG: WireError = WireError("unknown request tag");
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.i + n > self.b.len() {
            return Err(WireError("truncated frame"));
        }
        let s = &self.b[self.i..self.i + n];
        self.i += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| WireError("bad utf-8"))
    }

    fn vu64(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(WireError("varint overflows u64"));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError("varint too long"));
            }
        }
    }

    fn vi64(&mut self) -> Result<i64, WireError> {
        let z = self.vu64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(WireError("trailing bytes"))
        }
    }
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Hello { proto } => {
                let mut e = Enc::new(0x01);
                e.u16(*proto);
                e.finish()
            }
            Request::Subscribe { cpu_mask, metrics } => {
                let mut e = Enc::new(0x04);
                e.u64(*cpu_mask);
                e.u8(*metrics);
                e.finish()
            }
            Request::Read { sub_id, submit_ns } => {
                let mut e = Enc::new(0x05);
                e.u32(*sub_id);
                e.u64(*submit_ns);
                e.finish()
            }
            Request::Close => Enc::new(0x0a).finish(),
            Request::GetSelfMetrics => Enc::new(0x0b).finish(),
            Request::Resume { session_token } => {
                let mut e = Enc::new(0x0c);
                e.u64(*session_token);
                e.finish()
            }
            Request::StreamDeltas { every_pumps } => {
                let mut e = Enc::new(0x0e);
                e.u32(*every_pumps);
                e.finish()
            }
            Request::AckTick { tick } => {
                let mut e = Enc::new(0x0f);
                e.u64(*tick);
                e.finish()
            }
            Request::QueryRange {
                series,
                agg,
                start_tick,
                end_tick,
                max_points,
            } => {
                let mut e = Enc::new(0x11);
                e.u8(*series);
                e.u8(*agg);
                e.u64(*start_tick);
                e.u64(*end_tick);
                e.u32(*max_points);
                e.finish()
            }
            Request::GetHealth => Enc::new(0x12).finish(),
        }
    }

    /// As [`Request::encode`], carrying `header`.
    pub fn encode_with(&self, header: &Header) -> Vec<u8> {
        header.wrap(&self.encode())
    }

    /// Decode one whole frame (including the length prefix), dropping
    /// its header after verifying it.
    pub fn decode(frame: &[u8]) -> Result<Request, WireError> {
        Request::decode_framed(frame).map(|(_, req)| req)
    }

    /// Decode one whole frame and its verified header, if it has one.
    pub fn decode_framed(frame: &[u8]) -> Result<(Option<Header>, Request), WireError> {
        let (header, tag, mut d) = split_frame(frame)?;
        let req = match tag {
            0x01 => Request::Hello { proto: d.u16()? },
            0x04 => Request::Subscribe {
                cpu_mask: d.u64()?,
                metrics: d.u8()?,
            },
            0x05 => Request::Read {
                sub_id: d.u32()?,
                submit_ns: d.u64()?,
            },
            0x0a => Request::Close,
            0x0b => Request::GetSelfMetrics,
            0x0c => Request::Resume {
                session_token: d.u64()?,
            },
            0x0e => Request::StreamDeltas {
                every_pumps: d.u32()?,
            },
            0x0f => Request::AckTick { tick: d.u64()? },
            0x11 => Request::QueryRange {
                series: d.u8()?,
                agg: d.u8()?,
                start_tick: d.u64()?,
                end_tick: d.u64()?,
                max_points: d.u32()?,
            },
            0x12 => Request::GetHealth,
            _ => return Err(WireError::UNKNOWN_TAG),
        };
        d.done()?;
        Ok((header, req))
    }
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Welcome {
                session_id,
                proto,
                n_cpus,
                tick_ns,
                session_token,
            } => {
                let mut e = Enc::new(0x81);
                e.u64(*session_id);
                e.u16(*proto);
                e.u32(*n_cpus);
                e.u64(*tick_ns);
                e.u64(*session_token);
                e.finish()
            }
            Response::Subscribed { sub_id, base_tick } => {
                let mut e = Enc::new(0x84);
                e.u32(*sub_id);
                e.u64(*base_tick);
                e.finish()
            }
            Response::Counters {
                sub_id,
                tick,
                time_ns,
                latency_ns,
                quality,
                values,
            } => {
                let mut e = Enc::new(0x85);
                e.u32(*sub_id);
                e.u64(*tick);
                e.u64(*time_ns);
                e.u64(*latency_ns);
                e.u8(*quality);
                e.u8(values.len() as u8);
                for v in values {
                    e.u8(v.metric);
                    e.u64(v.value);
                }
                e.finish()
            }
            Response::Err { code, msg } => {
                let mut e = Enc::new(0x88);
                e.u16(*code);
                e.str(msg);
                e.finish()
            }
            Response::Evicted { reason } => {
                let mut e = Enc::new(0x89);
                e.str(reason);
                e.finish()
            }
            Response::Closed => Enc::new(0x8a).finish(),
            Response::SelfMetrics { counters, hists } => {
                let mut e = Enc::new(0x8b);
                e.u16(counters.len() as u16);
                for (name, v) in counters {
                    e.str(name);
                    e.u64(*v);
                }
                e.u16(hists.len() as u16);
                for h in hists {
                    e.str(&h.name);
                    e.u64(h.count);
                    e.u64(h.min);
                    e.u64(h.max);
                    e.u64(h.p50);
                    e.u64(h.p90);
                    e.u64(h.p99);
                }
                e.finish()
            }
            Response::Resumed {
                session_id,
                session_token,
                cur_tick,
                gap_pumps,
            } => {
                let mut e = Enc::new(0x8c);
                e.u64(*session_id);
                e.u64(*session_token);
                e.u64(*cur_tick);
                e.u64(*gap_pumps);
                e.finish()
            }
            Response::Overloaded { retry_after_pumps } => {
                let mut e = Enc::new(0x8d);
                e.u32(*retry_after_pumps);
                e.finish()
            }
            Response::TickKeyframe {
                tick,
                time_ns,
                temp_mc,
                energy_uj,
                crc,
                cpus,
            } => {
                let mut e = Enc::new(0x8f);
                e.vu64(*tick);
                e.vu64(*time_ns);
                e.i64(*temp_mc);
                e.vu64(*energy_uj);
                e.u64(*crc);
                e.u16(cpus.len() as u16);
                for c in cpus {
                    e.u8(u8::from(c.online));
                    e.vu64(c.instructions);
                    e.vu64(c.cycles);
                }
                e.finish()
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
                let mut e = Enc::new(0x90);
                e.vu64(*base_tick);
                e.vu64(*tick);
                e.vu64(*d_time_ns);
                e.i64(*temp_mc);
                e.vi64(*d_energy_uj);
                e.u64(*crc);
                e.u16(cpu_deltas.len() as u16);
                for (di, dc) in cpu_deltas {
                    e.vi64(*di);
                    e.vi64(*dc);
                }
                e.finish()
            }
            Response::RangeReply {
                series,
                agg,
                tier,
                count,
                min,
                max,
                points,
            } => {
                let mut e = Enc::new(0x91);
                e.u8(*series);
                e.u8(*agg);
                e.u8(*tier);
                e.vu64(*count);
                e.vu64(*min);
                e.vu64(*max);
                e.u16(points.len() as u16);
                for (tick, value) in points {
                    e.vu64(*tick);
                    e.vu64(*value);
                }
                e.finish()
            }
            Response::Health { pumps, slos } => {
                let mut e = Enc::new(0x92);
                e.vu64(*pumps);
                e.u8(slos.len() as u8);
                for s in slos {
                    e.u8(s.kind);
                    e.vu64(s.target);
                    e.u32(s.window_pumps);
                    e.vu64(s.breaches);
                    e.vu64(s.last_breach_pump);
                    e.vu64(s.worst);
                    e.u64(s.exemplar_trace_id);
                }
                e.finish()
            }
        }
    }

    /// As [`Response::encode`], carrying `header`.
    pub fn encode_with(&self, header: &Header) -> Vec<u8> {
        header.wrap(&self.encode())
    }

    /// Decode one whole frame (including the length prefix), dropping
    /// its header after verifying it.
    pub fn decode(frame: &[u8]) -> Result<Response, WireError> {
        Response::decode_framed(frame).map(|(_, resp)| resp)
    }

    /// Decode one whole frame and its verified header, if it has one.
    pub fn decode_framed(frame: &[u8]) -> Result<(Option<Header>, Response), WireError> {
        let (header, tag, mut d) = split_frame(frame)?;
        let resp = match tag {
            0x81 => Response::Welcome {
                session_id: d.u64()?,
                proto: d.u16()?,
                n_cpus: d.u32()?,
                tick_ns: d.u64()?,
                session_token: d.u64()?,
            },
            0x84 => Response::Subscribed {
                sub_id: d.u32()?,
                base_tick: d.u64()?,
            },
            0x85 => {
                let sub_id = d.u32()?;
                let tick = d.u64()?;
                let time_ns = d.u64()?;
                let latency_ns = d.u64()?;
                let quality = d.u8()?;
                let n = d.u8()? as usize;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(MetricValue {
                        metric: d.u8()?,
                        value: d.u64()?,
                    });
                }
                Response::Counters {
                    sub_id,
                    tick,
                    time_ns,
                    latency_ns,
                    quality,
                    values,
                }
            }
            0x88 => Response::Err {
                code: d.u16()?,
                msg: d.str()?,
            },
            0x89 => Response::Evicted { reason: d.str()? },
            0x8a => Response::Closed,
            0x8b => {
                let n = d.u16()? as usize;
                let mut counters = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = d.str()?;
                    counters.push((name, d.u64()?));
                }
                let n = d.u16()? as usize;
                let mut hists = Vec::with_capacity(n);
                for _ in 0..n {
                    hists.push(HistSummary {
                        name: d.str()?,
                        count: d.u64()?,
                        min: d.u64()?,
                        max: d.u64()?,
                        p50: d.u64()?,
                        p90: d.u64()?,
                        p99: d.u64()?,
                    });
                }
                Response::SelfMetrics { counters, hists }
            }
            0x8c => Response::Resumed {
                session_id: d.u64()?,
                session_token: d.u64()?,
                cur_tick: d.u64()?,
                gap_pumps: d.u64()?,
            },
            0x8d => Response::Overloaded {
                retry_after_pumps: d.u32()?,
            },
            0x8f => {
                let tick = d.vu64()?;
                let time_ns = d.vu64()?;
                let temp_mc = d.i64()?;
                let energy_uj = d.vu64()?;
                let crc = d.u64()?;
                let n = d.u16()? as usize;
                let mut cpus = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    cpus.push(CpuKeyframe {
                        online: d.u8()? != 0,
                        instructions: d.vu64()?,
                        cycles: d.vu64()?,
                    });
                }
                Response::TickKeyframe {
                    tick,
                    time_ns,
                    temp_mc,
                    energy_uj,
                    crc,
                    cpus,
                }
            }
            0x90 => {
                let base_tick = d.vu64()?;
                let tick = d.vu64()?;
                let d_time_ns = d.vu64()?;
                let temp_mc = d.i64()?;
                let d_energy_uj = d.vi64()?;
                let crc = d.u64()?;
                let n = d.u16()? as usize;
                let mut cpu_deltas = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    cpu_deltas.push((d.vi64()?, d.vi64()?));
                }
                Response::TickDelta {
                    base_tick,
                    tick,
                    d_time_ns,
                    temp_mc,
                    d_energy_uj,
                    crc,
                    cpu_deltas,
                }
            }
            0x91 => {
                let series = d.u8()?;
                let agg = d.u8()?;
                let tier = d.u8()?;
                let count = d.vu64()?;
                let min = d.vu64()?;
                let max = d.vu64()?;
                let n = d.u16()? as usize;
                if n > MAX_RANGE_POINTS {
                    return Err(WireError("range reply exceeds MAX_RANGE_POINTS"));
                }
                let mut points = Vec::with_capacity(n);
                for _ in 0..n {
                    points.push((d.vu64()?, d.vu64()?));
                }
                Response::RangeReply {
                    series,
                    agg,
                    tier,
                    count,
                    min,
                    max,
                    points,
                }
            }
            0x92 => {
                let pumps = d.vu64()?;
                let n = d.u8()? as usize;
                if n > MAX_SLOS {
                    return Err(WireError("health reply exceeds MAX_SLOS"));
                }
                let mut slos = Vec::with_capacity(n);
                for _ in 0..n {
                    slos.push(SloHealth {
                        kind: d.u8()?,
                        target: d.vu64()?,
                        window_pumps: d.u32()?,
                        breaches: d.vu64()?,
                        last_breach_pump: d.vu64()?,
                        worst: d.vu64()?,
                        exemplar_trace_id: d.u64()?,
                    });
                }
                Response::Health { pumps, slos }
            }
            _ => return Err(WireError("unknown response tag")),
        };
        d.done()?;
        Ok((header, resp))
    }
}

/// Incremental frame decoder for byte-stream transports: feed reads as
/// they arrive, pop complete frames as they become available. One
/// rolling buffer absorbs partial frames across read boundaries, so a
/// single readiness event can drain many pipelined requests without
/// per-read staging buffers.
///
/// A length prefix above [`MAX_FRAME`] is a framing error the stream
/// cannot recover from (the frame boundary is lost): `next_frame`
/// returns the typed error on every subsequent call and the caller
/// must drop the connection.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Absorb freshly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, keeping the buffer
        // bounded by one partial frame plus one read.
        if self.start > 0 && (self.start >= 4096 || self.start == self.buf.len()) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame (`[len][tag][payload]`, length
    /// prefix included), `Ok(None)` if more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let len =
            u32::from_le_bytes(self.buf[self.start..self.start + 4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(WireError("frame exceeds MAX_FRAME"));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let frame = self.buf[self.start..self.start + 4 + len].to_vec();
        self.start += 4 + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// Validate the length prefix, verify and strip the header if the tag
/// carries one, and return (header, tag, payload decoder).
fn split_frame(frame: &[u8]) -> Result<(Option<Header>, u8, Dec<'_>), WireError> {
    if frame.len() < 5 {
        return Err(WireError("frame shorter than header"));
    }
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(WireError("frame exceeds MAX_FRAME"));
    }
    if frame.len() != 4 + len {
        return Err(WireError("length prefix mismatch"));
    }
    let tag = frame[4];
    if tag & HEADER_BIT == 0 {
        return Ok((
            None,
            tag,
            Dec {
                b: &frame[5..],
                i: 0,
            },
        ));
    }
    if frame.len() < 5 + HEADER_LEN {
        return Err(WireError("frame shorter than its header"));
    }
    if header_crc(frame) != u64::from_le_bytes(frame[5..13].try_into().unwrap()) {
        return Err(WireError::CHECKSUM);
    }
    let mut d = Dec {
        b: &frame[13..],
        i: 0,
    };
    let header = Header {
        seq: d.u32()?,
        trace: TraceCtx {
            trace_id: d.u64()?,
            parent_span: d.u32()?,
            sampled: d.u8()? != 0,
        },
    };
    Ok((Some(header), tag & !HEADER_BIT, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Hello {
                proto: PROTO_VERSION,
            },
            Request::Subscribe {
                cpu_mask: 0b1011,
                metrics: metrics::ALL,
            },
            Request::Read {
                sub_id: 7,
                submit_ns: 123_456,
            },
            Request::Close,
            Request::GetSelfMetrics,
            Request::Resume {
                session_token: 0xdead_beef_cafe_f00d,
            },
            Request::StreamDeltas { every_pumps: 1 },
            Request::AckTick { tick: 420 },
            Request::QueryRange {
                series: series::LATENCY_NS,
                agg: agg::P99,
                start_tick: 0,
                end_tick: u64::MAX,
                max_points: 128,
            },
            Request::GetHealth,
        ];
        let header = Header {
            seq: 9,
            trace: TraceCtx {
                trace_id: 0x1234_5678_9abc_def0 & !1,
                parent_span: 3,
                sampled: true,
            },
        };
        for r in reqs {
            let f = r.encode();
            assert_eq!(Request::decode_framed(&f).unwrap(), (None, r.clone()));
            let f = r.encode_with(&header);
            assert_eq!(f.len(), r.encode().len() + HEADER_LEN);
            assert_eq!(
                Request::decode_framed(&f).unwrap(),
                (Some(header), r.clone()),
                "{r:?}"
            );
            assert_eq!(Request::decode(&f).unwrap(), r);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Welcome {
                session_id: 42,
                proto: 1,
                n_cpus: 24,
                tick_ns: 1_000_000,
                session_token: 0x1234_5678_9abc_def0,
            },
            Response::Subscribed {
                sub_id: 3,
                base_tick: 9,
            },
            Response::Counters {
                sub_id: 3,
                tick: 10,
                time_ns: 5_000,
                latency_ns: 1_800,
                quality: 1,
                values: vec![
                    MetricValue {
                        metric: metrics::INSTRUCTIONS,
                        value: 1_000_000,
                    },
                    MetricValue {
                        metric: metrics::ENERGY_PKG,
                        value: 55,
                    },
                ],
            },
            Response::Err {
                code: errcode::NO_SUCH_SUB,
                msg: "no sub 9".into(),
            },
            Response::Evicted {
                reason: "outbox full for 8 pumps".into(),
            },
            Response::Closed,
            Response::SelfMetrics {
                counters: vec![
                    ("reads_served".into(), 99),
                    ("latency_inversions".into(), 0),
                ],
                hists: vec![HistSummary {
                    name: "read_latency_ns".into(),
                    count: 99,
                    min: 500,
                    max: 8_000,
                    p50: 1_023,
                    p90: 4_095,
                    p99: 8_000,
                }],
            },
            Response::Resumed {
                session_id: 43,
                session_token: 0x1234_5678_9abc_def0,
                cur_tick: 50,
                gap_pumps: 13,
            },
            Response::Overloaded {
                retry_after_pumps: 3,
            },
            Response::TickKeyframe {
                tick: 40,
                time_ns: 2_000_000,
                temp_mc: 41_500,
                energy_uj: 9_999,
                crc: 0xfeed_f00d,
                cpus: vec![
                    CpuKeyframe {
                        online: true,
                        instructions: u64::MAX,
                        cycles: 7,
                    },
                    CpuKeyframe {
                        online: false,
                        instructions: 0,
                        cycles: 0,
                    },
                ],
            },
            Response::TickDelta {
                base_tick: 40,
                tick: 60,
                d_time_ns: 1_000_000,
                temp_mc: 42_000,
                d_energy_uj: -3,
                crc: 0xdead_cafe,
                cpu_deltas: vec![(1_000_000, 2_500_000), (0, 0), (-1, i64::MIN)],
            },
            Response::RangeReply {
                series: series::READS,
                agg: agg::SUM,
                tier: 1,
                count: 3,
                min: 10,
                max: 900,
                points: vec![(20, 10), (40, 500), (60, 900)],
            },
            Response::RangeReply {
                series: series::LATENCY_NS,
                agg: agg::P99,
                tier: 0,
                count: 4096,
                min: 500,
                max: u64::MAX,
                points: vec![(80, 16_383)],
            },
            Response::Health {
                pumps: 77,
                slos: vec![
                    SloHealth {
                        kind: 0,
                        target: 10_000,
                        window_pumps: 8,
                        breaches: 2,
                        last_breach_pump: 70,
                        worst: 32_767,
                        exemplar_trace_id: 0xaaaa_bbbb_cccc_0002,
                    },
                    SloHealth {
                        kind: 2,
                        target: 0,
                        window_pumps: 4,
                        breaches: 0,
                        last_breach_pump: 0,
                        worst: 0,
                        exemplar_trace_id: 0,
                    },
                ],
            },
            Response::Health {
                pumps: 1,
                slos: vec![],
            },
        ];
        let header = Header {
            seq: 9,
            trace: TraceCtx::default(),
        };
        for r in resps {
            let f = r.encode();
            assert_eq!(Response::decode(&f).unwrap(), r, "{r:?}");
            let f = r.encode_with(&header);
            assert_eq!(Response::decode_framed(&f).unwrap(), (Some(header), r));
        }
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[1, 0, 0, 0]).is_err());
        // Bad length prefix.
        let mut f = Request::GetSelfMetrics.encode();
        f[0] ^= 0xff;
        assert!(Request::decode(&f).is_err());
        // Truncated payload.
        let f = Request::Subscribe {
            cpu_mask: 1,
            metrics: 1,
        }
        .encode();
        assert!(Request::decode(&f[..f.len() - 2]).is_err());
        // Trailing garbage inside the declared length.
        let mut f = Request::Close.encode();
        f.push(0);
        f[0] = 2;
        assert!(Request::decode(&f).is_err());
        // Unknown tags: an unassigned request tag is named as such.
        let mut f = Request::Close.encode();
        f[4] = 0x7f;
        assert!(Request::decode(&f).is_err());
        f[4] = 0x06;
        assert_eq!(Request::decode(&f), Err(WireError::UNKNOWN_TAG));
        let mut f = Response::Closed.encode();
        f[4] = 0xff;
        assert!(Response::decode(&f).is_err());
        // SelfMetrics cut off mid-histogram.
        let f = Response::SelfMetrics {
            counters: vec![("c".into(), 1)],
            hists: vec![HistSummary {
                name: "h".into(),
                count: 1,
                min: 1,
                max: 1,
                p50: 1,
                p90: 1,
                p99: 1,
            }],
        }
        .encode();
        assert!(Response::decode(&f[..f.len() - 4]).is_err());
        // A RangeReply whose declared point count exceeds the bound is
        // refused before any allocation of that size.
        let mut e = Enc::new(0x91);
        e.u8(0);
        e.u8(0);
        e.u8(0);
        e.vu64(0);
        e.vu64(0);
        e.vu64(0);
        e.u16(MAX_RANGE_POINTS as u16 + 1);
        let f = e.finish();
        assert_eq!(
            Response::decode(&f),
            Err(WireError("range reply exceeds MAX_RANGE_POINTS"))
        );
        // Same for a Health frame with too many SLO rows.
        let mut e = Enc::new(0x92);
        e.vu64(1);
        e.u8(MAX_SLOS as u8 + 1);
        let f = e.finish();
        assert_eq!(
            Response::decode(&f),
            Err(WireError("health reply exceeds MAX_SLOS"))
        );
        // A header frame too short for the header itself.
        let mut f = Request::Close.encode();
        f[4] |= HEADER_BIT;
        assert_eq!(
            Request::decode(&f),
            Err(WireError("frame shorter than its header"))
        );
    }

    #[test]
    fn header_checksum_catches_bit_flips() {
        let req = Request::Subscribe {
            cpu_mask: 0b1010,
            metrics: metrics::ALL,
        };
        let header = Header {
            seq: 5,
            trace: TraceCtx::default(),
        };
        let frame = req.encode_with(&header);
        // A flip in the payload (the cpu_mask byte) would leave a valid
        // Subscribe, and a flip in the seq a valid header: the checksum
        // refuses both, so neither can be applied as a different request.
        for (at, bit) in [(frame.len() - 2, 0x04), (13, 0x04)] {
            let mut bad = frame.clone();
            bad[at] ^= bit;
            assert_eq!(Request::decode_framed(&bad), Err(WireError::CHECKSUM));
        }
        // Same on the response side.
        let mut frame = Response::Closed.encode_with(&header);
        let last = frame.len() - 1;
        frame[last] ^= 0x80;
        assert_eq!(Response::decode_framed(&frame), Err(WireError::CHECKSUM));
    }

    #[test]
    fn varints_round_trip_edge_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut e = Enc::new(0x01);
            e.vu64(v);
            let f = e.finish();
            let mut d = Dec { b: &f[5..], i: 0 };
            assert_eq!(d.vu64().unwrap(), v);
            d.done().unwrap();
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut e = Enc::new(0x01);
            e.vi64(v);
            let f = e.finish();
            let mut d = Dec { b: &f[5..], i: 0 };
            assert_eq!(d.vi64().unwrap(), v);
            d.done().unwrap();
        }
        // A ten-byte continuation chain overflows u64: typed error.
        let over = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut d = Dec { b: &over, i: 0 };
        assert!(d.vu64().is_err());
    }

    #[test]
    fn frame_decoder_reassembles_split_and_pipelined_frames() {
        let frames = [
            Request::Hello { proto: 1 }.encode(),
            Request::Read {
                sub_id: 3,
                submit_ns: 999,
            }
            .encode(),
            Request::Close.encode(),
        ];
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        // One byte at a time: every boundary is a partial frame.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.feed(&[*b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames.to_vec());
        assert_eq!(dec.buffered(), 0);
        // All at once: one feed drains all three.
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        let mut got = Vec::new();
        while let Some(f) = dec.next_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(got, frames.to_vec());
    }

    #[test]
    fn frame_decoder_oversized_prefix_is_a_sticky_typed_error() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(dec.next_frame().is_err());
        dec.feed(&[0; 64]);
        assert!(dec.next_frame().is_err(), "desync cannot self-heal");
    }

    #[test]
    fn stream_crc_tracks_state_changes() {
        let base = stream_crc(10, 500, &[(100, 200), (7, 9)]);
        assert_eq!(base, stream_crc(10, 500, &[(100, 200), (7, 9)]));
        assert_ne!(base, stream_crc(11, 500, &[(100, 200), (7, 9)]));
        assert_ne!(base, stream_crc(10, 501, &[(100, 200), (7, 9)]));
        assert_ne!(base, stream_crc(10, 500, &[(101, 200), (7, 9)]));
    }

    /// A fixed raptor-sized state: the tick, the energy and 24 CPUs'
    /// (instructions, cycles), 50 words in checksum order.
    fn raptor_state_words() -> Vec<u64> {
        let cpus =
            (0..24u64).flat_map(|i| [1_000_003 * (i + 1) * (i + 1), 7_919 * (i + 1) + (i << 40)]);
        [123_456, 8_943_752_134].into_iter().chain(cpus).collect()
    }

    fn crc_of_words(w: &[u64]) -> u64 {
        let cpus: Vec<(u64, u64)> = w[2..].chunks(2).map(|p| (p[0], p[1])).collect();
        stream_crc(w[0], w[1], &cpus)
    }

    #[test]
    fn stream_crc_known_answer() {
        // FNV-1a over the 50 words, computed outside this crate.
        assert_eq!(crc_of_words(&raptor_state_words()), 0x98d7_ab24_e2c0_2b1b);
    }

    #[test]
    fn stream_crc_changes_with_every_single_bit_flip() {
        let mut words = raptor_state_words();
        assert_eq!(words.len(), 50);
        let base = crc_of_words(&words);
        let mut flips = 0;
        for w in 0..words.len() {
            for bit in 0..64 {
                words[w] ^= 1 << bit;
                assert_ne!(crc_of_words(&words), base, "word {w} bit {bit}");
                words[w] ^= 1 << bit;
                flips += 1;
            }
        }
        assert_eq!(flips, 3_200);
    }

    #[test]
    fn metric_iteration_is_in_wire_order() {
        let got: Vec<u8> = metrics::iter(metrics::ALL).collect();
        assert_eq!(
            got,
            vec![metrics::INSTRUCTIONS, metrics::CYCLES, metrics::ENERGY_PKG]
        );
        assert_eq!(metrics::iter(0).count(), 0);
    }
}
