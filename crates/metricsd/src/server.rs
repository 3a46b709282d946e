//! The daemon: one session table, lockstep pump, backpressure.
//!
//! A [`Daemon`] owns the [`Collector`] and one table of connected
//! sessions in admission order, and each `pump()`:
//!
//! 1. admits pending connections to the end of the table,
//! 2. advances the kernel once and publishes the new [`TickSnapshot`]
//!    to the [`SnapshotCache`] (the single cache-invalidation point),
//!    which also pre-encodes this pump's shared delta-stream frames,
//! 3. serves every session from the immutable snapshot, inline on the
//!    pump thread in table order. The k-th request or push served in
//!    the pump completes on the virtual serving clock at snapshot time
//!    plus `(k+1)·serve_ns`,
//! 4. reaps closed and evicted sessions, **parks** sessions whose
//!    transport died uncleanly, and TTL-reaps the parked table.
//!
//! Serving is readiness-based: every `FrameQueue` push raises a
//! lock-free flag, and the serve loop skips sessions with no raised
//! flag, no carried-over input, and no stream push due — an idle
//! subscriber costs one atomic swap per pump, which is what makes
//! 100k-session fan-out tractable.
//!
//! Backpressure is explicit: a session whose outbox is full keeps its
//! requests queued in its inbox (nothing is dropped), and a session that
//! stays stalled for [`STALL_GRACE_PUMPS`] consecutive pumps is evicted —
//! a best-effort [`Response::Evicted`] is forced into its outbox and the
//! queue closes. The daemon never blocks on a slow consumer.
//!
//! Robustness (chaos hardening) layers three mechanisms on top:
//!
//! * **Idempotent reissue** — requests carrying the
//!   [`crate::wire::Header`] are
//!   checksum-verified (tag, seq, trace context and payload) and, with
//!   a nonzero seq, deduplicated against a small per-session reply
//!   cache, so a client that lost a reply can reissue the same sequence
//!   id without the request being applied twice.
//! * **Session resume** — a session whose transport dies uncleanly
//!   (inbox closed and drained without an orderly `Close` or an
//!   eviction) is *parked*: its subscriptions, delta-stream setting, and
//!   reply cache move to a token-keyed table for
//!   [`RESUME_TTL_PUMPS`]. A reconnecting client sends
//!   [`Request::Resume`] with the token from its `Welcome` and
//!   continues where it left off; resumed subscriptions answer reads
//!   as `ReadQuality::Scaled`, and a client re-baselines by subscribing
//!   again.
//! * **Load shedding** — with `pump_budget` or
//!   `deadline_pumps` configured, excess or overdue queued requests
//!   are answered with a typed [`Response::Overloaded`] (carrying a
//!   retry hint) instead of being applied, evicted, or left to rot.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simos::kernel::KernelHandle;
use simtrace::metrics::Registry;
use simtrace::{span, EventKind, TraceSink, Track};

use crate::history::{History, Rollup, SloSpec};
use crate::queue::{ClientPipe, FrameQueue, PushError};
use crate::snapshot::{Collector, SnapshotCache, StreamFrames, TickSnapshot};
use crate::wire::{
    errcode, fnv64, metrics, HistSummary, MetricValue, Request, Response, WireError, PROTO_VERSION,
};

/// Entries kept in a session's seq-reply dedup cache. Two covers the
/// resilient client's worst case (one outstanding RPC plus the Resume
/// that restored it); four leaves slack.
const REPLY_CACHE: usize = 4;

/// The stall grace: consecutive pumps a session may sit with a full
/// outbox (a push attempted and refused) before it is evicted as a slow
/// consumer. Healthy sessions that drain every pump never accumulate
/// stalled pumps and are never evicted.
pub const STALL_GRACE_PUMPS: u32 = 8;

/// Pumps a parked (dead-transport) session stays resumable before its
/// token is reaped and its state dropped.
pub const RESUME_TTL_PUMPS: u64 = 256;

/// Back-off hint carried in [`Response::Overloaded`] replies.
pub const RETRY_AFTER_PUMPS: u32 = 2;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Kernel ticks simulated per pump — the batching window: every read
    /// arriving within one pump is served from the same kernel pass.
    pub ticks_per_pump: u32,
    /// Per-session outbox capacity (frames) before backpressure.
    pub outbox_cap: usize,
    /// Per-session inbox capacity (frames).
    pub inbox_cap: usize,
    /// Virtual serving cost per request or push (sim-ns), the queueing
    /// term in reported latency.
    pub serve_ns: u64,
    /// Per-session request budget per pump (fairness cap).
    pub max_requests_per_pump: u32,
    /// Total requests the daemon serves per pump before it starts
    /// shedding (0 = unlimited). Shed requests are answered
    /// [`Response::Overloaded`] and **never applied**, so reissuing
    /// them is always safe.
    pub pump_budget: u32,
    /// Consecutive pumps a session may sit with queued-but-unserved
    /// requests before they are shed with [`Response::Overloaded`]
    /// (0 = no deadline).
    pub deadline_pumps: u32,
    /// Per-tier frame capacity of the rollup history ring (floored at
    /// [`crate::history::TIER_FANOUT`]).
    pub history_cap: usize,
    /// Declarative SLO targets the watchdog evaluates after every pump
    /// (empty = watchdog off; `GetHealth` answers zero rows).
    pub slos: Vec<SloSpec>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            ticks_per_pump: 20,
            outbox_cap: 64,
            inbox_cap: 64,
            serve_ns: 500,
            max_requests_per_pump: 16,
            pump_budget: 0,
            deadline_pumps: 0,
            history_cap: 512,
            slos: Vec::new(),
        }
    }
}

/// A counter subscription: baseline values at subscribe time; reads
/// return the delta.
struct Subscription {
    id: u32,
    cpu_mask: u64,
    metrics: u8,
    /// Baselines in wire metric order.
    base: Vec<u64>,
    /// Per-CPU offline epochs at baseline (full width).
    base_epochs: Vec<u32>,
    base_gaps: u32,
    /// Set when the subscription survived a session resume: its reads
    /// answer `ReadQuality::Scaled` (the client missed pushes during
    /// the gap). A client re-baselines by subscribing again.
    resumed: bool,
}

struct Session {
    id: u64,
    /// Resume token: assigned from the id at connect, inherited across
    /// resumes so the client's token stays valid for its whole logical
    /// session however many transports it burns through.
    token: u64,
    inbox: Arc<FrameQueue>,
    outbox: Arc<FrameQueue>,
    helloed: bool,
    subs: Vec<Subscription>,
    next_sub_id: u32,
    /// Push delta-encoded snapshot frames every N pumps (0 = off).
    delta_every: u32,
    /// Tick the delta subscriber's mirror is believed to hold: the
    /// last successfully pushed frame's tick. `None` forces a keyframe
    /// (stream start, resume, or client nack).
    stream_base: Option<u64>,
    stalled_pumps: u32,
    /// Consecutive pumps this session ended with requests still queued
    /// (feeds the `deadline_pumps` shed).
    waiting_pumps: u32,
    /// Serve-loop memory: the last pump ended with input still queued
    /// (budget or backpressure), so the readiness skip must not apply
    /// even though no new push raised the inbox flag.
    pending_input: bool,
    /// Recent `(seq, encoded header reply)` pairs for idempotent
    /// reissue.
    reply_cache: VecDeque<(u32, Vec<u8>)>,
    closed: bool,
    evicted: bool,
}

/// Parked state of a session whose transport died uncleanly, keyed by
/// token in the daemon's resume table until TTL.
struct ParkedSession {
    subs: Vec<Subscription>,
    next_sub_id: u32,
    delta_every: u32,
    reply_cache: VecDeque<(u32, Vec<u8>)>,
    parked_at_pump: u64,
}

/// Deterministic token for a fresh session id. FNV-64 of the id bytes:
/// stable across runs (a feature in the sim — chaosbench digests stay
/// reproducible), effectively injective over realistic id ranges.
fn session_token(id: u64) -> u64 {
    fnv64(&id.to_le_bytes())
}

/// Cross-thread connection intake, clonable into acceptor threads.
#[derive(Clone)]
pub struct Connector {
    pending: Arc<Mutex<Vec<Session>>>,
    next_id: Arc<AtomicU64>,
    inbox_cap: usize,
    outbox_cap: usize,
}

impl Connector {
    /// Open an in-process connection; the session is admitted on the
    /// next pump.
    pub fn connect(&self) -> ClientPipe {
        self.connect_with_outbox_cap(self.outbox_cap)
    }

    /// As [`Connector::connect`] with a custom outbox capacity (small
    /// caps make slow-consumer eviction easy to exercise).
    pub fn connect_with_outbox_cap(&self, outbox_cap: usize) -> ClientPipe {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let inbox = FrameQueue::new(self.inbox_cap);
        let outbox = FrameQueue::new(outbox_cap);
        self.pending.lock().push(Session {
            id,
            token: session_token(id),
            inbox: inbox.clone(),
            outbox: outbox.clone(),
            helloed: false,
            subs: Vec::new(),
            next_sub_id: 1,
            delta_every: 0,
            stream_base: None,
            stalled_pumps: 0,
            waiting_pumps: 0,
            pending_input: false,
            reply_cache: VecDeque::new(),
            closed: false,
            evicted: false,
        });
        ClientPipe {
            tx: inbox,
            rx: outbox,
        }
    }
}

/// Everything serving needs beyond the session table, borrowed from
/// the daemon for one pump.
struct PumpCtx<'a> {
    snap: &'a TickSnapshot,
    stream: &'a StreamFrames,
    cfg: &'a DaemonConfig,
    tick_ns: u64,
    /// This pump's `GetSelfMetrics` reply, frozen at pump start.
    self_metrics: &'a [u8],
    /// Pre-encoded `Response::Health` frame, frozen at pump start from
    /// the watchdog state through the previous pump.
    health: &'a [u8],
    /// The rollup history `QueryRange` reads; written after serving.
    history: &'a History,
    parked: &'a mut HashMap<u64, ParkedSession>,
    pump: u64,
    /// The serving flight recorder.
    trace: &'a mut TraceSink,
    /// The self-metrics registry. This pump's reply is already frozen
    /// in `self_metrics`, so what serving records here surfaces on the
    /// wire at the next pump.
    reg: &'a mut Registry,
    /// This pump's history frame; serving adds its reads, latencies,
    /// sheds and evictions.
    rollup: &'a mut Rollup,
    /// Requests and pushes served so far this pump: the k-th completes
    /// on the virtual clock at snapshot time + (k+1)·serve_ns.
    served: u64,
}

pub struct Daemon {
    cfg: DaemonConfig,
    collector: Collector,
    cache: SnapshotCache,
    /// Live sessions in admission order, which is the serve order.
    sessions: Vec<Session>,
    /// Requests served since boot (the `reads_served` gauge).
    reads_served: u64,
    connector: Connector,
    /// Dead-transport sessions awaiting `Resume`, keyed by token.
    parked: HashMap<u64, ParkedSession>,
    pumps: u64,
    n_cpus: u32,
    tick_ns: u64,
    /// Pump-level flight recorder (pumps, parks, SLO breaches).
    trace: TraceSink,
    /// Serving flight recorder (serves, pushes, sheds, evictions, RPC
    /// spans).
    serve_trace: TraceSink,
    /// Rollup history + SLO watchdog.
    history: History,
    /// This pump's frozen `GetHealth` reply.
    health_frame: Vec<u8>,
    /// Per-CPU cluster index (0 = the machine's first core type — the
    /// big/P cluster on hybrids — 1 = everything else).
    cluster_of: Vec<u8>,
    /// Per-cluster (instructions, cycles) sums at the previous pump,
    /// the rollup delta baseline.
    prev_cluster: [[u64; 2]; 2],
    /// Snapshot time of the previous pump (rate denominators).
    prev_time_ns: u64,
    /// The self-metrics registry, the one ledger of daemon counters.
    reg: Registry,
}

impl Daemon {
    /// Boot the serving layer over an already-booted kernel: open the
    /// collector's counters and publish an empty tick-0 snapshot.
    pub fn new(kernel: KernelHandle, cfg: DaemonConfig) -> Daemon {
        let (n_cpus, tick_ns, trace_cfg, cluster_of) = {
            let k = kernel.lock();
            let machine = k.machine();
            // Cluster partition for the history's per-cluster series:
            // cluster 0 is the machine's first core type (the big/P
            // cluster on hybrids), cluster 1 everything else. On
            // homogeneous machines cluster 1 stays empty.
            let first_type = machine.core_types()[0];
            let cluster_of: Vec<u8> = machine
                .cpus()
                .iter()
                .map(|c| u8::from(c.core_type() != first_type))
                .collect();
            (
                machine.n_cpus() as u32,
                k.config().tick_ns,
                k.config().trace.clone(),
                cluster_of,
            )
        };
        let mut collector = Collector::new(kernel);
        collector.set_trace(TraceSink::new(&trace_cfg));
        let first = collector_boot_snapshot(&collector);
        let prev_time_ns = first.time_ns;
        let cache = SnapshotCache::new(first);
        let history = History::new(cfg.history_cap, cfg.slos.clone());
        let health_frame = Response::Health {
            pumps: 0,
            slos: history.health(),
        }
        .encode();
        Daemon {
            connector: Connector {
                pending: Arc::new(Mutex::new(Vec::new())),
                next_id: Arc::new(AtomicU64::new(1)),
                inbox_cap: cfg.inbox_cap,
                outbox_cap: cfg.outbox_cap,
            },
            cfg,
            collector,
            cache,
            sessions: Vec::new(),
            reads_served: 0,
            parked: HashMap::new(),
            pumps: 0,
            n_cpus,
            tick_ns,
            trace: TraceSink::new(&trace_cfg),
            serve_trace: TraceSink::new(&trace_cfg),
            history,
            health_frame,
            cluster_of,
            prev_cluster: [[0; 2]; 2],
            prev_time_ns,
            reg: Registry::new(),
        }
    }

    /// Handle for opening connections (clonable into acceptor threads).
    pub fn connector(&self) -> Connector {
        self.connector.clone()
    }

    /// The snapshot cache, for tools and tests that read the latest
    /// snapshot.
    pub fn cache(&self) -> &SnapshotCache {
        &self.cache
    }

    /// Sessions currently parked awaiting resume.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Threads serving sessions: always 1, the pump thread.
    pub fn workers(&self) -> usize {
        1
    }

    /// One lockstep serving round. Returns the snapshot it served from.
    pub fn pump(&mut self) -> Arc<TickSnapshot> {
        self.pump_with_ticks(self.cfg.ticks_per_pump)
    }

    /// A serving round that advances sim time by **zero** ticks:
    /// counter values stay frozen while sessions are still admitted,
    /// served, resumed, and reaped. chaosbench's drain phase uses this
    /// so a variable-length recovery tail (clients riding out injected
    /// faults) cannot perturb the final counter digest.
    pub fn pump_quiescent(&mut self) -> Arc<TickSnapshot> {
        self.pump_with_ticks(0)
    }

    /// One serving round over `ticks` kernel ticks.
    pub fn pump_with_ticks(&mut self, ticks: u32) -> Arc<TickSnapshot> {
        // 1. Admit pending connections, in connect order.
        self.sessions.append(&mut self.connector.pending.lock());

        // 2. One kernel pass; publish the snapshot (cache invalidation).
        let snap = self.collector.advance(ticks);
        self.cache.publish(snap.clone());
        self.pumps += 1;

        // 3. Refresh the gauges and freeze this pump's GetSelfMetrics
        // reply before serving begins: what is served below surfaces at
        // the *next* pump. Then serve every session from the immutable
        // snapshot, in table order.
        self.reg.set("pumps", self.pumps);
        self.reg.set("sessions", self.sessions.len() as u64);
        self.reg.set("reads_served", self.reads_served);
        self.reg.set("parked_sessions", self.parked.len() as u64);
        let self_metrics = self_metrics_frame(&self.reg);
        self.trace
            .record(snap.time_ns, EventKind::DaemonPump, 0, self.pumps, 0);
        let mut rollup = self.open_rollup(&snap);
        let mut ctx = PumpCtx {
            snap: &snap,
            stream: self.cache.stream_frames(),
            cfg: &self.cfg,
            tick_ns: self.tick_ns,
            self_metrics: &self_metrics,
            health: &self.health_frame,
            history: &self.history,
            parked: &mut self.parked,
            pump: self.pumps,
            trace: &mut self.serve_trace,
            reg: &mut self.reg,
            rollup: &mut rollup,
            served: 0,
        };
        self.reads_served += serve(&mut self.sessions, &mut ctx);

        // 4. Reap: drop closed/evicted sessions, park dead transports.
        // Compacts the table in place: rebuilding it would hold a second
        // copy of every session at the pump's memory peak.
        let pumps = self.pumps;
        self.sessions.retain_mut(|s| {
            if s.evicted {
                self.reg.inc("evictions", 1);
                return false;
            }
            if s.closed {
                return false;
            }
            if s.inbox.is_closed() && s.inbox.is_empty() {
                // Unclean transport death with nothing left to serve:
                // park for resume instead of dropping.
                self.trace
                    .record(snap.time_ns, EventKind::ConnReset, 1, s.id, pumps);
                self.reg.inc("conn_parks", 1);
                s.outbox.close();
                self.parked.insert(
                    s.token,
                    ParkedSession {
                        subs: std::mem::take(&mut s.subs),
                        next_sub_id: s.next_sub_id,
                        delta_every: s.delta_every,
                        reply_cache: std::mem::take(&mut s.reply_cache),
                        parked_at_pump: pumps,
                    },
                );
                return false;
            }
            true
        });
        // TTL-reap the parked table.
        let mut reaped = 0u64;
        self.parked.retain(|_, p| {
            let keep = pumps.saturating_sub(p.parked_at_pump) <= RESUME_TTL_PUMPS;
            if !keep {
                reaped += 1;
            }
            keep
        });
        if reaped > 0 {
            self.reg.inc("parked_reaped", reaped);
        }

        // 5. History: push this pump's rollup frame. Queries served
        // during pump N therefore see rollups through pump N-1.
        let breaches = self.history.push(rollup);
        for b in &breaches {
            self.trace.record(
                snap.time_ns,
                EventKind::SloBreach,
                b.slo as u32,
                b.exemplar,
                b.observed,
            );
            self.reg.inc("slo_breaches", 1);
        }
        self.health_frame = Response::Health {
            pumps: self.pumps,
            slos: self.history.health(),
        }
        .encode();
        snap
    }

    /// This pump's history frame before serving: its tick and time span
    /// and the per-cluster counter deltas since the previous pump.
    fn open_rollup(&mut self, snap: &TickSnapshot) -> Rollup {
        let mut cluster = [[0u64; 2]; 2];
        for (i, c) in snap.cpus.iter().enumerate() {
            let cl = self.cluster_of.get(i).copied().unwrap_or(0) as usize;
            cluster[cl][0] += c.instructions;
            cluster[cl][1] += c.cycles;
        }
        let rollup = Rollup {
            pump: self.pumps,
            first_tick: snap.tick,
            last_tick: snap.tick,
            first_time_ns: self.prev_time_ns,
            last_time_ns: snap.time_ns,
            reads: 0,
            stale_reads: 0,
            evictions: 0,
            sheds: 0,
            cluster_instructions: [
                cluster[0][0].saturating_sub(self.prev_cluster[0][0]),
                cluster[1][0].saturating_sub(self.prev_cluster[1][0]),
            ],
            cluster_cycles: [
                cluster[0][1].saturating_sub(self.prev_cluster[0][1]),
                cluster[1][1].saturating_sub(self.prev_cluster[1][1]),
            ],
            latency: Default::default(),
            slow_ns: 0,
            exemplar: 0,
        };
        self.prev_cluster = cluster;
        self.prev_time_ns = snap.time_ns;
        rollup
    }

    pub fn n_cpus(&self) -> u32 {
        self.n_cpus
    }

    /// The self-metrics registry as of the end of the last pump. The
    /// wire `GetSelfMetrics` reply is this registry frozen at the start
    /// of the pump that serves it.
    pub fn self_metrics(&self) -> &Registry {
        &self.reg
    }

    /// Every flight-recorder track: the kernel's (kernel/hw/per-CPU),
    /// then the daemon pump track, the collector track, and the serving
    /// track.
    pub fn trace_tracks(&self) -> Vec<Track> {
        let mut tracks = {
            let k = self.collector.kernel().lock();
            k.trace_tracks()
        };
        tracks.push(Track::new("daemon", self.trace.events()));
        tracks.push(Track::new("collector", self.collector.trace_events()));
        tracks.push(Track::new("serve", self.serve_trace.events()));
        tracks
    }

    /// The rollup history (what `QueryRange` serves from), for tests
    /// and local cross-checks.
    pub fn history(&self) -> &History {
        &self.history
    }
}

/// Encode the registry as a [`Response::SelfMetrics`] frame.
fn self_metrics_frame(reg: &Registry) -> Vec<u8> {
    Response::SelfMetrics {
        counters: reg
            .counters()
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
        hists: reg
            .histograms()
            .map(|(name, h)| HistSummary {
                name: name.to_string(),
                count: h.count(),
                min: h.min(),
                max: h.max(),
                p50: h.percentile(0.50),
                p90: h.percentile(0.90),
                p99: h.percentile(0.99),
            })
            .collect(),
    }
    .encode()
}

/// The collector takes its own boot snapshot internally; re-derive a
/// matching tick-0 view for the cache without another kernel pass.
fn collector_boot_snapshot(c: &Collector) -> Arc<TickSnapshot> {
    // The collector's boot sample is not retained; an empty placeholder
    // with tick 0 suffices until the first pump publishes (counter
    // queries require a pump first).
    let k = c.kernel().lock();
    Arc::new(TickSnapshot {
        tick: 0,
        time_ns: k.time_ns(),
        cpus: vec![Default::default(); k.machine().n_cpus()],
        temp_mc: 0,
        energy_pkg_uj: 0,
        sysfs_gaps: 0,
    })
}

/// Serve every session once, in table order; returns the number of
/// requests served.
fn serve(sessions: &mut [Session], ctx: &mut PumpCtx) -> u64 {
    let cfg = ctx.cfg;
    let snap = ctx.snap;
    let mut requests: u64 = 0;
    let mut pushes: u64 = 0;
    let mut examined: u64 = 0;
    let mut skipped: u64 = 0;
    // Bounded-work admission: once the pump budget is spent, remaining
    // queued requests are shed (table order makes the shed set
    // deterministic for a fixed schedule).
    let mut pump_budget: u64 = if cfg.pump_budget == 0 {
        u64::MAX
    } else {
        cfg.pump_budget as u64
    };
    for session in sessions.iter_mut() {
        if session.closed || session.evicted {
            continue;
        }
        // Readiness fast path: nothing pushed since last pump, nothing
        // carried over, no stream due → the session is idle. One atomic
        // swap, no mutex. Equivalent to a full pass in which nothing
        // happens, so the stall/deadline counters reset exactly as that
        // pass would have reset them.
        let input_hint = session.inbox.take_ready() || session.pending_input;
        let delta_due =
            session.delta_every > 0 && snap.tick.is_multiple_of(session.delta_every as u64);
        if !input_hint && !delta_due {
            session.stalled_pumps = 0;
            session.waiting_pumps = 0;
            skipped += 1;
            continue;
        }
        examined += 1;
        let mut stalled = false;

        // Delta-stream push: the shared pre-encoded frame for this pump
        // (one encode, N subscribers). The delta applies only to a
        // mirror holding exactly the previous publish; any gap — first
        // push, a push missed under backpressure, a resume, a client
        // nack — falls back to the keyframe.
        if delta_due {
            let sf = ctx.stream;
            let frame = match (session.stream_base, &sf.delta) {
                (Some(base), Some(delta)) if base == sf.base_tick => delta.clone(),
                _ => sf.keyframe.clone(),
            };
            let is_delta = !Arc::ptr_eq(&frame, &sf.keyframe);
            match session.outbox.push_shared(frame) {
                Ok(()) => {
                    session.stream_base = Some(sf.tick);
                    ctx.served += 1;
                    pushes += 1;
                    // The push hop of the snapshot's flow: collector
                    // (producer) → daemon (fan-out) → client (mirror),
                    // all deriving the same id from the tick alone.
                    let flow = span::snapshot_flow_id(sf.tick);
                    ctx.trace
                        .record(snap.time_ns, EventKind::SpanBegin, span::PUSH, flow, 0);
                    ctx.trace
                        .record(snap.time_ns, EventKind::SpanEnd, span::PUSH, flow, 0);
                    ctx.reg.inc(
                        if is_delta {
                            "stream_delta_pushes"
                        } else {
                            "stream_keyframe_pushes"
                        },
                        1,
                    );
                }
                Err(PushError::Full) => {
                    // Gap: stream_base stays behind, so the next
                    // successful push self-selects the keyframe.
                    stalled = true;
                }
                Err(PushError::Closed) | Err(PushError::TooBig) => session.closed = true,
            }
        }

        // Serve queued requests FIFO, up to the fairness cap, stopping
        // (not dropping) when the outbox has no room for a reply.
        let mut budget = cfg.max_requests_per_pump;
        while budget > 0 && pump_budget > 0 && !session.closed {
            if session.outbox.len() >= session.outbox.capacity() {
                stalled = true;
                break;
            }
            let Some(frame) = session.inbox.try_pop() else {
                break;
            };
            budget -= 1;
            pump_budget -= 1;
            let reply = handle_frame(session, &frame, ctx);
            ctx.served += 1;
            requests += 1;
            match session.outbox.push(reply) {
                Ok(()) => {
                    // An orderly Close: the ack is in the queue; seal it
                    // behind the ack so the client can still drain.
                    if session.closed {
                        session.outbox.close();
                    }
                }
                Err(PushError::Full) => {
                    // Raced with capacity check; treat as a stall but the
                    // reply must not vanish.
                    session.outbox.force_push(
                        Response::Err {
                            code: errcode::BAD_FRAME,
                            msg: "outbox overflow".into(),
                        }
                        .encode(),
                    );
                    stalled = true;
                    break;
                }
                Err(PushError::Closed) | Err(PushError::TooBig) => session.closed = true,
            }
        }

        // Load shedding: requests still queued after the serving loop
        // are answered `Overloaded` — never applied, so reissue is safe
        // — when either the pump budget ran dry or the session has
        // waited past its deadline.
        let over_budget = pump_budget == 0 && !session.inbox.is_empty();
        let over_deadline = cfg.deadline_pumps > 0
            && session.waiting_pumps >= cfg.deadline_pumps
            && !session.inbox.is_empty();
        if !session.closed && !stalled && (over_budget || over_deadline) {
            let reason: u32 = if over_budget { 0 } else { 1 };
            let mut shed_cap = cfg.max_requests_per_pump;
            while shed_cap > 0 && session.outbox.len() < session.outbox.capacity() {
                let Some(_dropped) = session.inbox.try_pop() else {
                    break;
                };
                shed_cap -= 1;
                ctx.rollup.sheds += 1;
                ctx.reg.inc("reqs_shed", 1);
                ctx.trace
                    .record(snap.time_ns, EventKind::LoadShed, reason, session.id, 0);
                let reply = Response::Overloaded {
                    retry_after_pumps: RETRY_AFTER_PUMPS,
                }
                .encode();
                if session.outbox.push(reply).is_err() {
                    break;
                }
            }
            session.waiting_pumps = 0;
        } else if session.inbox.is_empty() {
            session.waiting_pumps = 0;
        } else {
            session.waiting_pumps += 1;
        }

        if stalled {
            session.stalled_pumps += 1;
            if session.stalled_pumps > STALL_GRACE_PUMPS {
                session.evicted = true;
                ctx.rollup.evictions += 1;
                ctx.trace.record(
                    snap.time_ns,
                    EventKind::DaemonEvict,
                    0,
                    session.id,
                    session.stalled_pumps as u64,
                );
                session.outbox.force_push(
                    Response::Evicted {
                        reason: format!(
                            "slow consumer: outbox full for {} consecutive pumps",
                            session.stalled_pumps
                        ),
                    }
                    .encode(),
                );
                session.outbox.close();
                session.inbox.close();
            }
        } else {
            session.stalled_pumps = 0;
        }

        // Carry-over hint: input left queued (budget exhaustion, stall)
        // must re-arm the session for the next pump even if the client
        // pushes nothing new in between.
        session.pending_input = !session.inbox.is_empty();
    }
    if examined + skipped > 0 {
        ctx.trace.record(
            snap.time_ns,
            EventKind::ReactorWakeup,
            ctx.pump as u32,
            examined,
            skipped,
        );
        ctx.trace.record(
            snap.time_ns,
            EventKind::ReactorFlush,
            ctx.pump as u32,
            ctx.served,
            pushes,
        );
    }
    requests
}

/// Decode one inbound frame and produce the encoded reply. A frame
/// that fails to decode or to verify its header is refused and nothing
/// is applied. A header request is answered with the header echoed,
/// and a nonzero seq the session has already seen is answered from the
/// reply cache instead of being applied again.
fn handle_frame(session: &mut Session, frame: &[u8], ctx: &mut PumpCtx) -> Vec<u8> {
    let (header, req) = match Request::decode_framed(frame) {
        Ok(decoded) => decoded,
        Err(e) => {
            let code = if e == WireError::CHECKSUM {
                ctx.reg.inc("bad_checksums", 1);
                errcode::BAD_CHECKSUM
            } else if e == WireError::UNKNOWN_TAG {
                errcode::UNKNOWN_TAG
            } else {
                errcode::BAD_FRAME
            };
            return Response::Err {
                code,
                msg: e.to_string(),
            }
            .encode();
        }
    };
    let trace_id = match header {
        Some(h) if h.trace.sampled => h.trace.trace_id,
        _ => 0,
    };
    let t = ctx.snap.time_ns;
    if trace_id != 0 {
        // Verifying the header is the reactor hop; the serving span
        // (`span::SERVE`) wraps the dispatch below. A read's serving span
        // also joins the snapshot flow of the tick it serves from,
        // stitching the RPC timeline to the collector's.
        ctx.trace
            .record(t, EventKind::SpanBegin, span::REACTOR, trace_id, 0);
        ctx.trace
            .record(t, EventKind::SpanEnd, span::REACTOR, trace_id, 0);
        let joined = if matches!(req, Request::Read { .. }) {
            span::snapshot_flow_id(ctx.snap.tick)
        } else {
            0
        };
        ctx.trace
            .record(t, EventKind::SpanBegin, span::SERVE, trace_id, joined);
    }
    let reply = match header {
        None => dispatch(session, req, ctx, 0),
        Some(h) => match session
            .reply_cache
            .iter()
            .position(|(s, _)| h.seq != 0 && *s == h.seq)
        {
            Some(i) => {
                // Idempotent reissue: the request was already applied;
                // re-send the cached reply, apply nothing.
                ctx.reg.inc("dup_reissues", 1);
                session.reply_cache[i].1.clone()
            }
            None => {
                let reply = h.wrap(&dispatch(session, req, ctx, trace_id));
                if h.seq != 0 {
                    session.reply_cache.push_back((h.seq, reply.clone()));
                    while session.reply_cache.len() > REPLY_CACHE {
                        session.reply_cache.pop_front();
                    }
                }
                reply
            }
        },
    };
    if trace_id != 0 {
        ctx.trace
            .record(t, EventKind::SpanEnd, span::SERVE, trace_id, 0);
    }
    reply
}

/// Apply one decoded request to the session. `trace_id` is nonzero
/// only for a sampled traced request — it feeds the pump's rollup so
/// SLO breaches can name an exemplar.
fn dispatch(session: &mut Session, req: Request, ctx: &mut PumpCtx, trace_id: u64) -> Vec<u8> {
    let snap = ctx.snap;
    let cfg = ctx.cfg;
    if !session.helloed && !matches!(req, Request::Hello { .. } | Request::Resume { .. }) {
        return Response::Err {
            code: errcode::NOT_HELLOED,
            msg: "first frame must be Hello".into(),
        }
        .encode();
    }
    match req {
        Request::Hello { proto } => {
            if proto != PROTO_VERSION {
                return Response::Err {
                    code: errcode::BAD_PROTO,
                    msg: format!("daemon speaks proto {PROTO_VERSION}, client sent {proto}"),
                }
                .encode();
            }
            session.helloed = true;
            Response::Welcome {
                session_id: session.id,
                session_token: session.token,
                proto: PROTO_VERSION,
                n_cpus: snap.cpus.len() as u32,
                tick_ns: ctx.tick_ns,
            }
            .encode()
        }
        Request::Resume { session_token } => {
            match ctx.parked.remove(&session_token) {
                Some(p) => {
                    session.helloed = true;
                    session.token = session_token;
                    session.subs = p.subs;
                    for sub in &mut session.subs {
                        sub.resumed = true;
                    }
                    session.next_sub_id = p.next_sub_id;
                    session.delta_every = p.delta_every;
                    // The mirror on the other side is stale by however
                    // long the session was parked: force a keyframe.
                    session.stream_base = None;
                    // Restore the dedup cache so a pre-death seq
                    // reissued after Resume dedups instead of
                    // double-applying (e.g. a Subscribe whose reply the
                    // old transport ate).
                    session.reply_cache.extend(p.reply_cache);
                    let gap_pumps = ctx.pump.saturating_sub(p.parked_at_pump);
                    ctx.reg.inc("sessions_resumed", 1);
                    ctx.trace.record(
                        snap.time_ns,
                        EventKind::SessionResume,
                        0,
                        session.id,
                        gap_pumps,
                    );
                    Response::Resumed {
                        session_id: session.id,
                        session_token,
                        cur_tick: snap.tick,
                        gap_pumps,
                    }
                    .encode()
                }
                None => Response::Err {
                    code: errcode::NO_SUCH_TOKEN,
                    msg: format!("no parked session for token {session_token:#x}"),
                }
                .encode(),
            }
        }
        Request::Subscribe {
            cpu_mask,
            metrics: m,
        } => {
            let width_mask = if snap.cpus.len() >= 64 {
                u64::MAX
            } else {
                (1u64 << snap.cpus.len()) - 1
            };
            let eff_mask = cpu_mask & width_mask;
            if (m & metrics::ALL == 0) || (eff_mask == 0 && m & !metrics::ENERGY_PKG != 0) {
                return Response::Err {
                    code: errcode::EMPTY_MASK,
                    msg: "empty cpu mask or metric set".into(),
                }
                .encode();
            }
            let sub_id = session.next_sub_id;
            session.next_sub_id += 1;
            session.subs.push(Subscription {
                id: sub_id,
                cpu_mask: eff_mask,
                metrics: m,
                base: metrics::iter(m)
                    .map(|metric| snap.sum_metric(eff_mask, metric))
                    .collect(),
                base_epochs: snap.cpus.iter().map(|c| c.offline_epochs).collect(),
                base_gaps: snap.sysfs_gaps,
                resumed: false,
            });
            Response::Subscribed {
                sub_id,
                base_tick: snap.tick,
            }
            .encode()
        }
        Request::Read { sub_id, submit_ns } => match session.subs.iter().find(|s| s.id == sub_id) {
            Some(sub) => {
                let serve_virtual_ns = snap.time_ns + (ctx.served + 1) * cfg.serve_ns;
                let (resp, latency_ns, inverted) =
                    counters_response(sub, snap, submit_ns, serve_virtual_ns);
                let stale = !matches!(resp, Response::Counters { quality: 0, .. });
                ctx.rollup.observe_read(latency_ns, stale, trace_id);
                ctx.reg.observe("read_latency_ns", latency_ns);
                ctx.trace
                    .record(snap.time_ns, EventKind::DaemonServe, sub_id, latency_ns, 0);
                if inverted {
                    // The client claims a later last-seen time than this
                    // serve's virtual completion — a clock inversion that
                    // the old `min`-clamped formula silently masked.
                    ctx.reg.inc("latency_inversions", 1);
                    ctx.trace.record(
                        snap.time_ns,
                        EventKind::LatencyInversion,
                        sub_id,
                        submit_ns,
                        0,
                    );
                }
                resp.encode()
            }
            None => Response::Err {
                code: errcode::NO_SUCH_SUB,
                msg: format!("no subscription {sub_id}"),
            }
            .encode(),
        },
        Request::StreamDeltas { every_pumps } => {
            session.delta_every = every_pumps;
            // No base yet (or the client explicitly restarted the
            // stream): the first push is always a keyframe.
            session.stream_base = None;
            Response::Subscribed {
                sub_id: 0,
                base_tick: snap.tick,
            }
            .encode()
        }
        Request::AckTick { tick } => {
            // Client-side cursor update. `tick == 0` (or any tick the
            // daemon has moved past without a matching publish) is a
            // nack: the next push falls back to a keyframe because the
            // recorded base won't match the current frame's base_tick.
            session.stream_base = if tick == 0 {
                None
            } else {
                Some(tick.min(snap.tick))
            };
            Response::Subscribed {
                sub_id: 0,
                base_tick: snap.tick,
            }
            .encode()
        }
        Request::Close => {
            session.closed = true;
            Response::Closed.encode()
        }
        // Frozen at pump start, shared by every session this pump.
        Request::GetSelfMetrics => ctx.self_metrics.to_vec(),
        Request::QueryRange {
            series,
            agg,
            start_tick,
            end_tick,
            max_points,
        } => match ctx
            .history
            .query(series, agg, start_tick, end_tick, max_points)
        {
            Ok(r) => Response::RangeReply {
                series,
                agg,
                tier: r.tier,
                count: r.count,
                min: r.min,
                max: r.max,
                points: r.points,
            }
            .encode(),
            Err(msg) => Response::Err {
                code: errcode::BAD_QUERY,
                msg: msg.into(),
            }
            .encode(),
        },
        // Frozen at pump start from the watchdog state through the
        // previous pump, shared by every session this pump.
        Request::GetHealth => ctx.health.to_vec(),
    }
}

/// Build a Counters reply for a subscription from the snapshot, with
/// the `ReadQuality` aggregation:
///
/// * any covered CPU currently offline → `Lost` (2),
/// * any covered CPU hotplugged since baseline, a stale counter, a
///   sysfs gap affecting a subscribed energy metric, or a subscription
///   carried across a session resume (pushes missed during the gap) →
///   `Scaled` (1),
/// * otherwise `Ok` (0).
///
/// Returns `(response, latency_ns, inverted)`: `inverted` flags a
/// `submit_ns` later than the virtual serve time `serve_virtual_ns` (a
/// clock inversion, reported as zero latency rather than silently
/// clamped away).
fn counters_response(
    sub: &Subscription,
    snap: &TickSnapshot,
    submit_ns: u64,
    serve_virtual_ns: u64,
) -> (Response, u64, bool) {
    let mut quality = 0u8;
    if sub.resumed {
        quality = 1;
    }
    for (i, c) in snap.cpus.iter().enumerate() {
        if i >= 64 || sub.cpu_mask & (1 << i) == 0 {
            continue;
        }
        if !c.online {
            quality = quality.max(2);
        } else if c.offline_epochs != sub.base_epochs.get(i).copied().unwrap_or(0) || c.stale {
            quality = quality.max(1);
        }
    }
    if sub.metrics & metrics::ENERGY_PKG != 0 && snap.sysfs_gaps != sub.base_gaps {
        quality = quality.max(1);
    }
    let values = metrics::iter(sub.metrics)
        .zip(&sub.base)
        .map(|(metric, base)| MetricValue {
            metric,
            value: snap.sum_metric(sub.cpu_mask, metric).saturating_sub(*base),
        })
        .collect();
    let inverted = submit_ns > serve_virtual_ns;
    let latency_ns = serve_virtual_ns.saturating_sub(submit_ns);
    (
        Response::Counters {
            sub_id: sub.id,
            tick: snap.tick,
            time_ns: snap.time_ns,
            latency_ns,
            quality,
            values,
        },
        latency_ns,
        inverted,
    )
}
