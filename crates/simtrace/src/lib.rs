//! simtrace — deterministic flight-recorder tracing for the simulated
//! perf stack.
//!
//! Every layer of the workspace (simcpu hardware, the simos kernel, the
//! PAPI facade, metricsd) owns one or more [`TraceSink`]s: fixed-capacity
//! ring buffers of sim-time-stamped [`TraceEvent`]s. The contract that
//! keeps this compatible with the determinism and allocation guarantees
//! of DESIGN.md §7–§9:
//!
//! * **timestamps are sim time, never wall clock** — a traced run and an
//!   untraced run of the same seed produce bit-identical simulation
//!   state, and two traced runs produce bit-identical event streams;
//! * **one branch when off** — [`TraceSink::record`] on a disabled sink
//!   is a single `bool` test; a disabled sink allocates nothing;
//! * **zero allocation when on** — the ring is preallocated at
//!   construction and overwrites its oldest entry when full, so
//!   recording from the serial hot loop never touches the allocator.
//!
//! Recorded streams export through [`export::chrome_trace_json`]
//! (Perfetto / `chrome://tracing` loadable) and [`export::text_dump`];
//! [`metrics`] holds the shared self-metrics registry (counters, gauges,
//! log-bucketed histograms) and [`postmortem`] the last-N-events panic
//! dump.
//!
//! Tracing is configured in code: a [`TraceConfig`] (off by default, or
//! [`TraceConfig::enabled_with_cap`]) is carried in `KernelConfig` and
//! friends; no environment variable changes it.

pub mod export;
pub mod metrics;
pub mod postmortem;

pub use export::{chrome_trace_json, text_dump, Track};

/// What happened. One enum across every domain so a merged view sorts
/// trivially; the per-kind payload goes into [`TraceEvent::code`] /
/// [`TraceEvent::a`] / [`TraceEvent::b`] (documented per variant).
#[repr(u16)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Kernel tick span opens. `a` = tick index.
    TickBegin,
    /// Kernel tick span closes. `a` = tick index.
    TickEnd,
    /// Exec-plan cache hits during one core-tick. `code` = cpu, `a` = hits.
    PlanHit,
    /// Exec-plan cache misses during one core-tick. `code` = cpu, `a` = misses.
    PlanMiss,
    /// A task ran on a different CPU than last time. `code` = cpu, `a` = pid.
    SchedMigrate,
    /// A DVFS domain changed frequency. `code` = cluster, `a` = old kHz,
    /// `b` = new kHz.
    DvfsTransition,
    /// Thermal throttling engaged (`a` = 1) or released (`a` = 0);
    /// `b` = package temperature (milli-°C).
    ThermalTransition,
    /// Fault: CPU hotplugged out. `code` = cpu.
    FaultCpuOffline,
    /// Fault: NMI watchdog stole a fixed counter.
    FaultNmiWatchdog,
    /// Fault: next `a` perf_event_open calls fail transiently.
    FaultTransientOpen,
    /// Fault: next `a` perf read calls fail transiently.
    FaultTransientRead,
    /// Fault: 48-bit counter wrap armed. `a` = headroom.
    FaultCounterWrap,
    /// Fault: RAPL energy burst. `a` = injected µJ.
    FaultRaplWrapBurst,
    /// Fault: sysfs flaky window opened. `a` = duration ns.
    FaultSysfsFlaky,
    /// A fault reversal fired (re-online / watchdog release). `code` = cpu
    /// for re-online, 0 otherwise.
    FaultUndo,
    /// PAPI eventset started. `code` = eventset id.
    PapiStart,
    /// PAPI eventset stopped. `code` = eventset id.
    PapiStop,
    /// PAPI eventset read. `code` = eventset id, `a` = worst
    /// `ReadQuality` across values (0 ok / 1 scaled / 2 lost).
    PapiRead,
    /// metricsd pump completed. `a` = snapshot tick.
    DaemonPump,
    /// metricsd served one read. `code` = subscription id, `a` = the
    /// read's virtual latency (ns).
    DaemonServe,
    /// metricsd evicted a slow consumer. `a` = session id.
    DaemonEvict,
    /// A Read's `submit_ns` was ahead of the virtual serve clock.
    /// `a` = submit_ns, `b` = serve_virtual_ns.
    LatencyInversion,
    /// A transport connection reset (injected by `metricsd::chaos` or
    /// observed by a client as a dead transport). `a` = session id (0
    /// client-side), `b` = operation index at which the reset fired.
    ConnReset,
    /// A resilient client retried an RPC (reissue after a lost reply,
    /// an error reply, or a reconnect). `code` = attempt number,
    /// `a` = sequence id.
    ClientRetry,
    /// A session resumed from its token after a transport loss.
    /// `a` = session id serving the resume, `b` = gap in pumps between
    /// the client's cursor and the current snapshot.
    SessionResume,
    /// The daemon shed a request instead of serving it (overload
    /// protection). `code` = shed reason (0 = pump budget exhausted,
    /// 1 = inbox deadline exceeded), `a` = session id.
    LoadShed,
    /// A marker region opened (`papi::regions`). `code` = region id,
    /// `a` = nesting depth after the begin.
    RegionBegin,
    /// A marker region closed. `code` = region id, `a` = nesting depth
    /// before the end.
    RegionEnd,
    /// The scheduler placed a queued task on a free CPU (`select_cpu`).
    /// `code` = cpu, `a` = pid. Fires only when an unplaced task lands,
    /// never for tasks staying put, so steady-state ticks emit nothing.
    SchedDispatch,
    /// The scheduler preempted a running task (`dispatch`). `code` = cpu,
    /// `a` = winning pid, `b` = evicted pid.
    SchedPreempt,
    /// The scheduler's `tick` hook migrated a running task to a free CPU.
    /// `code` = destination cpu, `a` = pid, `b` = source cpu.
    SchedRebalance,
    /// The daemon's serve loop woke and examined its sessions for this
    /// pump. `a` = sessions with work (readiness hits), `b` = sessions
    /// skipped as idle (no queued input, no stream due).
    ReactorWakeup,
    /// The daemon's serve loop finished enqueueing this pump's output.
    /// `a` = frames enqueued (replies + pushes), `b` = stream/delta
    /// pushes among them.
    ReactorFlush,
    /// A causal span opened at one hop of a traced request or stream
    /// push. `code` = hop ([`span`] constants), `a` = flow id (the
    /// trace_id this span belongs to), `b` = secondary flow id joined at
    /// this hop (0 = none) — e.g. a daemon serve span joins the snapshot
    /// flow of the tick it read from.
    SpanBegin,
    /// The matching span closed. Same payload as [`EventKind::SpanBegin`].
    SpanEnd,
    /// The SLO watchdog observed a breached target over its trailing
    /// window. `code` = SLO index in the daemon config, `a` = exemplar
    /// trace_id (the slowest sampled request inside the window, 0 if
    /// none was sampled), `b` = observed value in the target's unit.
    SloBreach,
}

/// Every [`EventKind`], in discriminant order. The exporter and the
/// name round-trip test iterate this instead of hand-listing kinds, so
/// a variant added without a name fails the build, not the dump.
pub const ALL_EVENT_KINDS: &[EventKind] = &[
    EventKind::TickBegin,
    EventKind::TickEnd,
    EventKind::PlanHit,
    EventKind::PlanMiss,
    EventKind::SchedMigrate,
    EventKind::DvfsTransition,
    EventKind::ThermalTransition,
    EventKind::FaultCpuOffline,
    EventKind::FaultNmiWatchdog,
    EventKind::FaultTransientOpen,
    EventKind::FaultTransientRead,
    EventKind::FaultCounterWrap,
    EventKind::FaultRaplWrapBurst,
    EventKind::FaultSysfsFlaky,
    EventKind::FaultUndo,
    EventKind::PapiStart,
    EventKind::PapiStop,
    EventKind::PapiRead,
    EventKind::DaemonPump,
    EventKind::DaemonServe,
    EventKind::DaemonEvict,
    EventKind::LatencyInversion,
    EventKind::ConnReset,
    EventKind::ClientRetry,
    EventKind::SessionResume,
    EventKind::LoadShed,
    EventKind::RegionBegin,
    EventKind::RegionEnd,
    EventKind::SchedDispatch,
    EventKind::SchedPreempt,
    EventKind::SchedRebalance,
    EventKind::ReactorWakeup,
    EventKind::ReactorFlush,
    EventKind::SpanBegin,
    EventKind::SpanEnd,
    EventKind::SloBreach,
];

impl EventKind {
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TickBegin => "tick_begin",
            EventKind::TickEnd => "tick_end",
            EventKind::PlanHit => "plan_hit",
            EventKind::PlanMiss => "plan_miss",
            EventKind::SchedMigrate => "sched_migrate",
            EventKind::DvfsTransition => "dvfs_transition",
            EventKind::ThermalTransition => "thermal_transition",
            EventKind::FaultCpuOffline => "fault_cpu_offline",
            EventKind::FaultNmiWatchdog => "fault_nmi_watchdog",
            EventKind::FaultTransientOpen => "fault_transient_open",
            EventKind::FaultTransientRead => "fault_transient_read",
            EventKind::FaultCounterWrap => "fault_counter_wrap",
            EventKind::FaultRaplWrapBurst => "fault_rapl_wrap_burst",
            EventKind::FaultSysfsFlaky => "fault_sysfs_flaky",
            EventKind::FaultUndo => "fault_undo",
            EventKind::PapiStart => "papi_start",
            EventKind::PapiStop => "papi_stop",
            EventKind::PapiRead => "papi_read",
            EventKind::DaemonPump => "daemon_pump",
            EventKind::DaemonServe => "daemon_serve",
            EventKind::DaemonEvict => "daemon_evict",
            EventKind::LatencyInversion => "latency_inversion",
            EventKind::ConnReset => "conn_reset",
            EventKind::ClientRetry => "client_retry",
            EventKind::SessionResume => "session_resume",
            EventKind::LoadShed => "load_shed",
            EventKind::RegionBegin => "region_begin",
            EventKind::RegionEnd => "region_end",
            EventKind::SchedDispatch => "sched_dispatch",
            EventKind::SchedPreempt => "sched_preempt",
            EventKind::SchedRebalance => "sched_rebalance",
            EventKind::ReactorWakeup => "reactor_wakeup",
            EventKind::ReactorFlush => "reactor_flush",
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::SloBreach => "slo_breach",
        }
    }

    /// Inverse of [`EventKind::name`]: the kind whose stable name is
    /// `s`, if any. Tooling that filters text dumps by kind name parses
    /// through here so a renamed variant breaks loudly.
    pub fn from_name(s: &str) -> Option<EventKind> {
        ALL_EVENT_KINDS.iter().copied().find(|k| k.name() == s)
    }
}

/// One recorded event: 32 bytes, `Copy`, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event (ns).
    pub t_ns: u64,
    pub kind: EventKind,
    /// Small per-kind discriminator (CPU index, shed reason, …).
    pub code: u32,
    pub a: u64,
    pub b: u64,
}

/// Fixed-capacity overwrite-oldest ring of [`TraceEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct Ring {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next write position once the buffer has wrapped.
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

impl Ring {
    pub fn with_capacity(cap: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, e: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
        } else if self.buf.len() < self.cap {
            // Capacity was reserved up front: no allocation here.
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events oldest-first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

/// The recording handle a domain owns. Disabled is the common case and
/// costs one branch per [`TraceSink::record`] and zero bytes of ring.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    on: bool,
    ring: Ring,
}

impl TraceSink {
    /// A sink that records nothing and holds no buffer.
    pub fn disabled() -> TraceSink {
        TraceSink::default()
    }

    /// Build from config: enabled sinks preallocate their full ring.
    pub fn new(cfg: &TraceConfig) -> TraceSink {
        if cfg.enabled {
            TraceSink {
                on: true,
                ring: Ring::with_capacity(cfg.cap),
            }
        } else {
            TraceSink::disabled()
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    #[inline]
    pub fn record(&mut self, t_ns: u64, kind: EventKind, code: u32, a: u64, b: u64) {
        if !self.on {
            return;
        }
        self.ring.push(TraceEvent {
            t_ns,
            kind,
            code,
            a,
            b,
        });
    }

    /// Recorded events oldest-first (empty when disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.events()
    }

    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

/// Causal-span hop codes and deterministic flow-id derivation, shared
/// by every layer that records [`EventKind::SpanBegin`] /
/// [`EventKind::SpanEnd`] pairs.
///
/// Two id families partition the 64-bit space by parity so an RPC flow
/// can never collide with a snapshot flow:
///
/// * **RPC trace ids** ([`span::rpc_trace_id`]) are even — derived from
///   the session token and the client-side request sequence, both of
///   which are themselves seeded sim-state, never wall clock;
/// * **snapshot flow ids** ([`span::snapshot_flow_id`]) are odd —
///   derived from the collector tick, so the producer (collector), the
///   push path (daemon) and the consumer (client mirror) all compute the
///   same id independently, without carrying bytes on the wire.
pub mod span {
    /// Hop: the client posting an RPC / observing its reply.
    pub const CLIENT: u32 = 1;
    /// Hop: the transport reactor moving the framed bytes (tcpio thread
    /// for TCP, the serving loop's unwrap for in-process pipes).
    pub const REACTOR: u32 = 2;
    /// Hop: the daemon serving the request (`rpc:serve` in exports).
    pub const SERVE: u32 = 3;
    /// Hop: the collector producing the tick snapshot a read served
    /// from (joined into RPC flows via `TraceEvent::b`).
    pub const COLLECTOR: u32 = 4;
    /// Hop: a stream/delta push fanning a snapshot out to subscribers.
    pub const PUSH: u32 = 5;
    /// Hop: a `simperf stat` measurement window (arm → finish).
    pub const STAT: u32 = 6;

    /// Human-readable hop name (Perfetto slice title).
    pub fn hop_name(code: u32) -> &'static str {
        match code {
            CLIENT => "rpc:client",
            REACTOR => "rpc:reactor",
            SERVE => "rpc:serve",
            COLLECTOR => "collect",
            PUSH => "push",
            STAT => "stat",
            _ => "span",
        }
    }

    /// FNV-1a over the concatenated little-endian words — the same hash
    /// family `metricsd::wire::fnv64` uses for session tokens, so trace
    /// ids inherit its determinism argument (seeded inputs only).
    fn fnv64_words(words: &[u64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for byte in w.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }

    /// The trace id of a sampled RPC: even, nonzero, a pure function of
    /// (session token, client request sequence).
    pub fn rpc_trace_id(session_token: u64, seq: u64) -> u64 {
        (fnv64_words(&[session_token, seq]) & !1).max(2)
    }

    /// The flow id of the snapshot produced at `tick`: odd, a pure
    /// function of the tick index.
    pub fn snapshot_flow_id(tick: u64) -> u64 {
        fnv64_words(&[tick]) | 1
    }
}

/// Default per-sink ring capacity (events). 32 B/event ⇒ 128 KiB/sink.
pub const DEFAULT_CAP: usize = 4096;

/// Tracing configuration, carried in `KernelConfig` and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    pub enabled: bool,
    /// Ring capacity per sink, in events.
    pub cap: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            enabled: false,
            cap: DEFAULT_CAP,
        }
    }
}

impl TraceConfig {
    /// An enabled config with capacity `cap`.
    pub fn enabled_with_cap(cap: usize) -> TraceConfig {
        TraceConfig { enabled: true, cap }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            kind: EventKind::TickBegin,
            code: 0,
            a: t,
            b: 0,
        }
    }

    #[test]
    fn ring_keeps_newest_in_order() {
        let mut r = Ring::with_capacity(3);
        for t in 0..5 {
            r.push(ev(t));
        }
        let ts: Vec<u64> = r.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        assert_eq!(r.dropped(), 2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn disabled_sink_records_nothing_and_holds_no_buffer() {
        let mut s = TraceSink::disabled();
        s.record(1, EventKind::TickBegin, 0, 0, 0);
        assert!(!s.enabled());
        assert!(s.events().is_empty());
        assert_eq!(s.ring.buf.capacity(), 0);
    }

    #[test]
    fn enabled_sink_records_and_preallocates() {
        let mut s = TraceSink::new(&TraceConfig::enabled_with_cap(8));
        assert!(s.enabled());
        assert_eq!(s.ring.buf.capacity(), 8);
        s.record(5, EventKind::TickEnd, 1, 2, 3);
        let e = s.events();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].t_ns, 5);
        assert_eq!(e[0].kind, EventKind::TickEnd);
        assert_eq!((e[0].code, e[0].a, e[0].b), (1, 2, 3));
    }

    #[test]
    fn event_is_32_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 32);
    }

    #[test]
    fn every_kind_has_a_unique_name_that_round_trips() {
        // The PR-5 regression this guards: a kind added after the name
        // table froze would print its raw discriminant in text_dump.
        let mut seen = std::collections::BTreeSet::new();
        for &k in ALL_EVENT_KINDS {
            let name = k.name();
            assert!(!name.is_empty());
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{name:?} is not a stable snake_case name"
            );
            assert!(seen.insert(name), "duplicate event name {name:?}");
            assert_eq!(EventKind::from_name(name), Some(k), "{name} round-trips");
        }
        assert_eq!(EventKind::from_name("no_such_event"), None);
    }

    #[test]
    fn all_event_kinds_table_is_in_discriminant_order_and_complete() {
        for (i, &k) in ALL_EVENT_KINDS.iter().enumerate() {
            assert_eq!(k as u16, i as u16, "{:?} out of order", k);
        }
        // Appending a variant without extending the table leaves the
        // last listed discriminant short of the real tail.
        assert_eq!(
            *ALL_EVENT_KINDS.last().unwrap(),
            EventKind::SloBreach,
            "ALL_EVENT_KINDS must end at the newest variant"
        );
    }

    #[test]
    fn span_ids_are_deterministic_and_parity_partitioned() {
        let rpc = span::rpc_trace_id(0xdead_beef, 7);
        assert_eq!(rpc, span::rpc_trace_id(0xdead_beef, 7), "pure function");
        assert_eq!(rpc & 1, 0, "rpc ids are even");
        assert!(rpc >= 2);
        assert_ne!(rpc, span::rpc_trace_id(0xdead_beef, 8));
        let snap = span::snapshot_flow_id(42);
        assert_eq!(snap & 1, 1, "snapshot ids are odd");
        assert_eq!(snap, span::snapshot_flow_id(42));
        assert_ne!(snap, span::snapshot_flow_id(43));
        assert_eq!(span::hop_name(span::CLIENT), "rpc:client");
        assert_eq!(span::hop_name(99), "span");
    }
}
