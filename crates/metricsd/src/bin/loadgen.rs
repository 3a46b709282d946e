//! loadgen — drive thousands of simulated client sessions against the
//! daemon and prove the serving layer does not perturb the measurement.
//!
//! It boots a kernel (fixed spec, seed, workload and fault plan),
//! connects N sessions plus one deliberately slow streaming consumer
//! (tiny outbox, never drains — it must be evicted, not wedge the
//! daemon), runs T lockstep pumps with a deterministic per-session read
//! cadence, then reads every subscription one final time and digests
//! the counter values (FNV-1a).
//!
//! The digest must match a serial reference: a single client session
//! holding all N subscriptions on an identically booted daemon.
//! Throughput and latency are allowed to differ; counts are not.
//!
//! Two latency views are reported side by side:
//!
//! * **sim-ns** — the daemon's virtual serving clock (snapshot time +
//!   position in the pump's serve order). Deterministic, byte-identical
//!   across runs; this is the *modelled* latency.
//! * **wall-clock ns** — request→response time measured at the client
//!   with a real clock (post `Read` → drain `Counters`, FIFO per
//!   session). Noisy, host-dependent; this is the *actual* latency.
//!
//! The fleet runs `--reps` times (the digest must match every rep); the
//! best rep by throughput is reported, which filters scheduler noise out
//! of the throughput floor.
//!
//! A separate **high-fanout** phase drives 100k+ concurrent sessions —
//! almost all push-stream subscribers ([`Request::StreamDeltas`]), plus
//! a small reader pool — through the same daemon, counting delivered
//! frames and verifying sampled client mirrors stay CRC-synced. Zero
//! evictions are tolerated there: every session drains, so any eviction
//! is a stall-grace calibration bug.
//!
//! Emits `BENCH_metricsd.json`. Exit status is non-zero on any digest
//! mismatch, eviction-ledger mismatch, or (with `--floor-per-core` /
//! `--floor-queries`) a violated throughput floor.
//!
//! ```text
//! loadgen [--quick] [--sessions N] [--pumps T] [--reps R] [--out PATH]
//!         [--floor-per-core N] [--fanout-sessions N] [--fanout-pumps T]
//!         [--no-fanout] [--query-smoke] [--floor-queries N]
//!         [--trace-out PATH]
//! ```

mod common;

use std::collections::VecDeque;
use std::time::Instant;

use metricsd::queue::ClientPipe;
use metricsd::wire::{agg, metrics, series, Request, Response, MAX_RANGE_POINTS};
use metricsd::{
    Daemon, DaemonConfig, MetricsClient, MirrorOutcome, SloSpec, StreamMirror, STALL_GRACE_PUMPS,
};
use simtrace::metrics::{percentile_of_sorted, Histogram};
use simtrace::{EventKind, TraceConfig};

use common::{boot_machine, final_values_digest, session_mask, session_metrics};

const TICKS_PER_PUMP: u32 = 20;

type Client = MetricsClient<ClientPipe>;

fn cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

fn session_cadence(i: usize) -> u64 {
    1 + (i % 7) as u64
}

/// Client i's subscription, the same shape in every phase.
fn subscribe(i: usize, n_cpus: usize) -> Request {
    Request::Subscribe {
        cpu_mask: session_mask(i, n_cpus),
        metrics: session_metrics(i),
    }
}

fn hello(c: &mut Client) {
    c.post(&Request::Hello {
        proto: metricsd::PROTO_VERSION,
    })
    .expect("post hello");
}

/// One setup pump: `post(i, client)` queues client i's requests, the
/// daemon serves them, and every reply is drained. Returns, per client,
/// the ids its `Subscribe`s were granted, in order.
fn setup_pump(
    daemon: &mut Daemon,
    clients: &mut [Client],
    mut post: impl FnMut(usize, &mut Client),
) -> Vec<Vec<u32>> {
    for (i, c) in clients.iter_mut().enumerate() {
        post(i, c);
    }
    daemon.pump();
    clients
        .iter_mut()
        .map(|c| {
            let mut ids = Vec::new();
            while let Ok(Some(resp)) = c.try_take() {
                if let Response::Subscribed { sub_id, .. } = resp {
                    if sub_id != 0 {
                        ids.push(sub_id);
                    }
                }
            }
            ids
        })
        .collect()
}

/// The subscribe pump of the fleet and query phases: client i takes
/// subscription shape i. Returns each client's subscription id.
fn subscribe_all(daemon: &mut Daemon, clients: &mut [Client]) -> Vec<u32> {
    let n_cpus = daemon.n_cpus() as usize;
    setup_pump(daemon, clients, |i, c| {
        c.post(&subscribe(i, n_cpus)).expect("post subscribe")
    })
    .into_iter()
    .enumerate()
    .map(|(i, ids)| {
        *ids.first()
            .unwrap_or_else(|| panic!("session {i} subscribed"))
    })
    .collect()
}

struct FleetResult {
    reads: u64,
    wall_s: f64,
    /// Daemon's virtual serving clock, sorted.
    latencies_ns: Vec<u64>,
    /// Client-measured request→response wall clock, sorted.
    wall_latencies_ns: Vec<u64>,
    digest: u64,
    evicted_slow_consumer: bool,
    /// Evictions beyond the one deliberate slow consumer. Must be 0:
    /// a healthy session being evicted means the stall grace is
    /// miscalibrated for the workload.
    healthy_evictions: u64,
}

impl FleetResult {
    fn reads_per_sec(&self) -> f64 {
        self.reads as f64 / self.wall_s.max(1e-9)
    }
}

/// Drain every pending reply on a client, recording Counters for the
/// digest/latency accounting. `posted` carries the wall-clock post time
/// of every in-flight Read, FIFO — replies to a session come back in
/// request order, so front-of-queue is always the match.
fn drain(
    c: &mut Client,
    posted: &mut VecDeque<Instant>,
    latencies: &mut Vec<u64>,
    wall_latencies: &mut Vec<u64>,
    reads: &mut u64,
    last_counters: &mut Vec<(u8, u64)>,
) {
    while let Ok(Some(resp)) = c.try_take() {
        if let Response::Counters {
            latency_ns, values, ..
        } = resp
        {
            *reads += 1;
            latencies.push(latency_ns);
            if let Some(t) = posted.pop_front() {
                wall_latencies.push(t.elapsed().as_nanos() as u64);
            }
            last_counters.clear();
            last_counters.extend(values.iter().map(|v| (v.metric, v.value)));
        }
    }
}

/// One full load run of `n_sessions` sessions plus the slow consumer.
fn run_once(n_sessions: usize, pumps: u64) -> FleetResult {
    let mut daemon = Daemon::new(
        boot_machine(TraceConfig::default()),
        DaemonConfig {
            ticks_per_pump: TICKS_PER_PUMP,
            ..DaemonConfig::default()
        },
    );
    let connector = daemon.connector();

    let mut clients: Vec<Client> = (0..n_sessions)
        .map(|_| MetricsClient::new(connector.connect()))
        .collect();
    // The slow consumer: tiny outbox, delta-streams every pump, and
    // stops draining once its stream is set up.
    let mut slow = MetricsClient::new(connector.connect_with_outbox_cap(2));

    hello(&mut slow);
    setup_pump(&mut daemon, &mut clients, |_, c| hello(c));
    while let Ok(Some(_)) = slow.try_take() {}
    slow.post(&Request::Subscribe {
        cpu_mask: 1,
        metrics: metrics::ALL,
    })
    .expect("post subscribe");
    slow.post(&Request::StreamDeltas { every_pumps: 1 })
        .expect("post stream-deltas");
    let sub_ids = subscribe_all(&mut daemon, &mut clients);

    // Steady state: deterministic read cadence, thousands in flight.
    let mut latencies: Vec<u64> = Vec::new();
    let mut wall_latencies: Vec<u64> = Vec::new();
    let mut posted: Vec<VecDeque<Instant>> = vec![VecDeque::new(); n_sessions];
    let mut reads: u64 = 0;
    let mut last: Vec<Vec<(u8, u64)>> = vec![Vec::new(); n_sessions];
    let t0 = Instant::now();
    for pump in 0..pumps {
        for (i, c) in clients.iter_mut().enumerate() {
            if pump % session_cadence(i) == 0 {
                let submit_ns = c.last_seen_ns;
                c.post(&Request::Read {
                    sub_id: sub_ids[i],
                    submit_ns,
                })
                .expect("post read");
                posted[i].push_back(Instant::now());
            }
        }
        daemon.pump();
        for (i, c) in clients.iter_mut().enumerate() {
            drain(
                c,
                &mut posted[i],
                &mut latencies,
                &mut wall_latencies,
                &mut reads,
                &mut last[i],
            );
        }
    }

    // Final read: every session, one more pump, then digest.
    for (i, c) in clients.iter_mut().enumerate() {
        let submit_ns = c.last_seen_ns;
        c.post(&Request::Read {
            sub_id: sub_ids[i],
            submit_ns,
        })
        .expect("post final read");
        posted[i].push_back(Instant::now());
    }
    daemon.pump();
    for (i, c) in clients.iter_mut().enumerate() {
        drain(
            c,
            &mut posted[i],
            &mut latencies,
            &mut wall_latencies,
            &mut reads,
            &mut last[i],
        );
    }
    let wall_s = t0.elapsed().as_secs_f64();

    // Self-metrics cross-check: the daemon's wire-served read-latency
    // histogram (one extra pump, because the reply is frozen at the start
    // of the pump that serves it) must match a local histogram over the
    // very latencies this run observed, and the clock-inversion counter
    // must be zero — client submit times always trail the virtual serve
    // clock. Wall-clock timing must never leak in here: the wire
    // histogram is all sim-ns.
    clients[0]
        .post(&Request::GetSelfMetrics)
        .expect("post self-metrics");
    daemon.pump();
    let mut wire_hist = None;
    let mut wire_inversions = 0u64;
    while let Ok(Some(resp)) = clients[0].try_take() {
        if let Response::SelfMetrics { counters, hists } = resp {
            wire_inversions = counters
                .iter()
                .find(|(n, _)| n == "latency_inversions")
                .map(|(_, v)| *v)
                .unwrap_or(0);
            wire_hist = hists.into_iter().find(|h| h.name == "read_latency_ns");
        }
    }
    simtrace::postmortem::stash(simtrace::text_dump(&daemon.trace_tracks(), 32));
    let wire_hist = wire_hist.expect("daemon served a read_latency_ns histogram");
    let local = Histogram::from_values(&latencies);
    assert_eq!(wire_hist.count, local.count(), "read count over the wire");
    assert_eq!(wire_hist.min, local.min(), "latency min over the wire");
    assert_eq!(wire_hist.max, local.max(), "latency max over the wire");
    assert_eq!(wire_hist.p50, local.percentile(0.50), "p50 over the wire");
    assert_eq!(wire_hist.p90, local.percentile(0.90), "p90 over the wire");
    assert_eq!(wire_hist.p99, local.percentile(0.99), "p99 over the wire");
    assert_eq!(wire_inversions, 0, "no latency inversions expected");

    let digest = final_values_digest(last.iter().map(Vec::as_slice));

    // The slow consumer must have been evicted — daemon still serving,
    // its queue closed with a best-effort Evicted notice at the tail.
    let mut saw_evicted = false;
    loop {
        match slow.try_take() {
            Ok(Some(Response::Evicted { .. })) | Err(metricsd::ClientError::Evicted { .. }) => {
                saw_evicted = true;
                break;
            }
            Ok(Some(_)) => continue,
            Ok(None) | Err(_) => break,
        }
    }
    let evictions = daemon.self_metrics().counter("evictions");
    let evicted = saw_evicted && evictions >= 1;

    latencies.sort_unstable();
    wall_latencies.sort_unstable();
    FleetResult {
        reads,
        wall_s,
        latencies_ns: latencies,
        wall_latencies_ns: wall_latencies,
        digest,
        evicted_slow_consumer: evicted,
        healthy_evictions: evictions.saturating_sub(1),
    }
}

/// Run the fleet `reps` times. The digest (and the eviction ledger)
/// must be identical every rep; the best rep by reads/s is kept, so the
/// throughput floor measures the daemon, not a scheduler hiccup.
fn run_best_of(n_sessions: usize, pumps: u64, reps: u64) -> FleetResult {
    let mut best: Option<FleetResult> = None;
    for rep in 0..reps.max(1) {
        let r = run_once(n_sessions, pumps);
        assert_eq!(
            r.healthy_evictions, 0,
            "rep={rep}: healthy session evicted (stall grace miscalibrated)"
        );
        if let Some(b) = &best {
            assert_eq!(b.digest, r.digest, "digest changed between reps {rep}");
        }
        if best
            .as_ref()
            .is_none_or(|b| r.reads_per_sec() > b.reads_per_sec())
        {
            best = Some(r);
        }
    }
    best.expect("at least one rep")
}

struct FanoutResult {
    sessions: u64,
    subscribers: u64,
    readers: u64,
    pumps: u64,
    wall_s: f64,
    frames: u64,
    /// Client-measured request→response wall clock for the reader pool.
    wall_latencies_ns: Vec<u64>,
    mirrors_checked: u64,
    evictions: u64,
}

/// High-fanout phase: `n_sessions` concurrent sessions, almost all of
/// them `StreamDeltas` push subscribers (one pre-encoded frame shared by
/// every subscriber per pump), plus a small pool of classic readers
/// measured with wall-clock latency. Every 16th subscriber runs a full
/// [`StreamMirror`] and must end CRC-synced.
fn run_fanout(n_sessions: usize, pumps: u64) -> FanoutResult {
    const READERS: usize = 512;
    const MIRROR_EVERY: usize = 16;
    let mut daemon = Daemon::new(
        boot_machine(TraceConfig::default()),
        DaemonConfig {
            ticks_per_pump: TICKS_PER_PUMP,
            ..DaemonConfig::default()
        },
    );
    let n_cpus = daemon.n_cpus() as usize;
    let connector = daemon.connector();
    let readers = READERS.min(n_sessions);

    let mut clients: Vec<Client> = (0..n_sessions)
        .map(|_| MetricsClient::new(connector.connect()))
        .collect();

    // Setup: everyone subscribes to the delta stream; the reader pool
    // also takes a counter subscription.
    setup_pump(&mut daemon, &mut clients, |_, c| hello(c));
    let sub_ids: Vec<u32> = setup_pump(&mut daemon, &mut clients, |i, c| {
        c.post(&Request::StreamDeltas { every_pumps: 1 })
            .expect("post stream-deltas");
        if i < readers {
            c.post(&subscribe(i, n_cpus)).expect("post subscribe");
        }
    })
    .into_iter()
    .take(readers)
    .map(|ids| ids.first().copied().unwrap_or(0))
    .collect();

    // Steady state: every subscriber drains its push each pump (sampled
    // ones through a full mirror), readers post a Read each pump.
    let mut mirrors: Vec<StreamMirror> = (0..n_sessions)
        .step_by(MIRROR_EVERY)
        .map(|_| StreamMirror::new())
        .collect();
    let mut posted: Vec<VecDeque<Instant>> = vec![VecDeque::new(); readers];
    let mut wall_latencies: Vec<u64> = Vec::new();
    let mut frames: u64 = 0;
    let t0 = Instant::now();
    for _pump in 0..pumps {
        for (i, c) in clients.iter_mut().enumerate().take(readers) {
            let submit_ns = c.last_seen_ns;
            c.post(&Request::Read {
                sub_id: sub_ids[i],
                submit_ns,
            })
            .expect("post read");
            posted[i].push_back(Instant::now());
        }
        daemon.pump();
        for (i, c) in clients.iter_mut().enumerate() {
            while let Ok(Some(resp)) = c.try_take() {
                match resp {
                    Response::TickKeyframe { .. } | Response::TickDelta { .. } => {
                        frames += 1;
                        if i % MIRROR_EVERY == 0 {
                            match mirrors[i / MIRROR_EVERY].apply(&resp) {
                                MirrorOutcome::Applied => {}
                                MirrorOutcome::NeedKeyframe => {
                                    panic!("fanout: session {i} mirror desynced: {resp:?}")
                                }
                                MirrorOutcome::NotStream => unreachable!(),
                            }
                        }
                    }
                    Response::Counters { .. } => {
                        if let Some(t) = posted.get_mut(i).and_then(|q| q.pop_front()) {
                            wall_latencies.push(t.elapsed().as_nanos() as u64);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

    for (mi, m) in mirrors.iter().enumerate() {
        let i = mi * MIRROR_EVERY;
        assert!(m.synced, "fanout: session {i} mirror ended unsynced");
        assert!(m.desyncs == 0, "fanout: session {i} mirror desynced");
        assert!(m.keyframes >= 1, "fanout: session {i} saw no keyframe");
    }
    let evictions = daemon.self_metrics().counter("evictions");
    assert_eq!(
        evictions, 0,
        "fanout: healthy sessions were evicted under fanout load"
    );

    wall_latencies.sort_unstable();
    FanoutResult {
        sessions: n_sessions as u64,
        subscribers: n_sessions as u64,
        readers: readers as u64,
        pumps,
        wall_s,
        frames,
        wall_latencies_ns: wall_latencies,
        mirrors_checked: mirrors.len() as u64,
        evictions,
    }
}

/// Serial reference: ONE client session holding all N subscriptions,
/// same kernel, same pump count. Sessions never touch the kernel, so its
/// final counter values must match the fleet's bit-for-bit.
fn run_reference(n_sessions: usize, pumps: u64) -> u64 {
    let mut daemon = Daemon::new(
        boot_machine(TraceConfig::default()),
        DaemonConfig {
            ticks_per_pump: TICKS_PER_PUMP,
            inbox_cap: n_sessions + 16,
            outbox_cap: n_sessions + 16,
            max_requests_per_pump: u32::MAX,
            ..DaemonConfig::default()
        },
    );
    let n_cpus = daemon.n_cpus() as usize;
    let mut clients = [MetricsClient::new(daemon.connector().connect())];

    setup_pump(&mut daemon, &mut clients, |_, c| hello(c));
    let sub_ids = setup_pump(&mut daemon, &mut clients, |_, c| {
        for i in 0..n_sessions {
            c.post(&subscribe(i, n_cpus)).expect("post subscribe");
        }
    })
    .remove(0);
    assert_eq!(sub_ids.len(), n_sessions, "reference subscriptions");
    let c = &mut clients[0];

    // Same number of pumps; no reads needed — reads are kernel-free.
    for _ in 0..pumps {
        daemon.pump();
    }

    for &sub_id in &sub_ids {
        c.post(&Request::Read {
            sub_id,
            submit_ns: 0,
        })
        .expect("post read");
    }
    daemon.pump();
    let mut per_sub: Vec<Vec<(u8, u64)>> = vec![Vec::new(); n_sessions];
    while let Ok(Some(resp)) = c.try_take() {
        if let Response::Counters { sub_id, values, .. } = resp {
            let idx = sub_ids
                .iter()
                .position(|&s| s == sub_id)
                .expect("known sub");
            per_sub[idx] = values.iter().map(|v| (v.metric, v.value)).collect();
        }
    }
    final_values_digest(per_sub.iter().map(Vec::as_slice))
}

struct QueryPhaseResult {
    /// Counters replies observed locally — must equal the wire SUM.
    reads: u64,
    /// RangeReply frames served during the throughput storm.
    queries: u64,
    storm_wall_s: f64,
    /// QueryRange(LATENCY_NS, P99) over the whole run.
    p99_sim_ns: u64,
    history_digest: u64,
    /// Total watchdog breaches across all configured SLOs.
    breaches: u64,
    /// Exemplar trace id from the breached p99 SLO (0 when untraced).
    exemplar_trace_id: u64,
    /// Exemplar resolved to recorded spans on both ends of the wire.
    exemplar_resolved: bool,
    /// Perfetto export validated, with at least one flow arrow.
    flow_json_ok: bool,
    perfetto_json: String,
}

/// History/SLO/tracing phase: a deliberately small, fully deterministic
/// run that proves
///
/// * `QueryRange` answers match the client's own local accounting ±0,
/// * an impossible p99 target induces `SloBreach`es whose exemplar
///   trace id resolves to spans recorded on both sides of the wire,
/// * the Perfetto export stitches sampled requests across the
///   client/serve/collector tracks with flow arrows.
fn run_query_phase(n_sessions: usize, pumps: u64, traced: bool) -> QueryPhaseResult {
    const SAMPLE_EVERY: u32 = 4;
    const STORM_PUMPS: u64 = 8;
    const STORM_QUERIES_PER_SESSION: u32 = 8;
    let trace_cfg = if traced {
        TraceConfig::enabled_with_cap(1 << 16)
    } else {
        TraceConfig::default()
    };
    let mut daemon = Daemon::new(
        boot_machine(trace_cfg.clone()),
        DaemonConfig {
            ticks_per_pump: TICKS_PER_PUMP,
            // Zero queueing term: latency depends only on snapshot
            // time, never on position in the serve order, which keeps
            // the recorded p99 and history digests comparable with
            // earlier runs of this phase.
            serve_ns: 0,
            slos: vec![
                // 1 sim-ns p99 is impossible once any read is served:
                // the guaranteed breach generator.
                SloSpec::p99_latency_ns(1, 4),
                // Never breached here — proves rows stay independent.
                SloSpec::evictions_per_window(1_000_000, 4),
            ],
            ..DaemonConfig::default()
        },
    );
    let connector = daemon.connector();
    let mut clients: Vec<Client> = (0..n_sessions)
        .map(|_| MetricsClient::new(connector.connect()))
        .collect();
    if traced {
        for c in clients.iter_mut() {
            c.enable_tracing(&trace_cfg, SAMPLE_EVERY);
        }
    }
    setup_pump(&mut daemon, &mut clients, |_, c| hello(c));
    let sub_ids = subscribe_all(&mut daemon, &mut clients);

    // Steady state: every session reads every pump (sampled requests
    // carry their trace context in the frame header); the local
    // histogram mirrors what the daemon's history must report back.
    let mut local = Histogram::new();
    let mut reads = 0u64;
    for _pump in 0..pumps {
        for (i, c) in clients.iter_mut().enumerate() {
            let submit_ns = c.last_seen_ns;
            let req = Request::Read {
                sub_id: sub_ids[i],
                submit_ns,
            };
            if traced {
                c.post_traced(&req).expect("post traced read");
            } else {
                c.post(&req).expect("post read");
            }
        }
        daemon.pump();
        for c in clients.iter_mut() {
            while let Ok(Some(resp)) = c.try_take() {
                if let Response::Counters { latency_ns, .. } = resp {
                    reads += 1;
                    local.observe(latency_ns);
                }
            }
        }
    }

    // Correctness queries: served one pump later, which is exactly the
    // lag the history contract promises (queries during pump N see
    // rollups through pump N-1 — and every read above is in by now).
    clients[0]
        .post(&Request::QueryRange {
            series: series::READS,
            agg: agg::SUM,
            start_tick: 0,
            end_tick: u64::MAX,
            max_points: MAX_RANGE_POINTS as u32,
        })
        .expect("post sum query");
    clients[0]
        .post(&Request::QueryRange {
            series: series::LATENCY_NS,
            agg: agg::P99,
            start_tick: 0,
            end_tick: u64::MAX,
            max_points: 1,
        })
        .expect("post p99 query");
    clients[0]
        .post(&Request::GetHealth)
        .expect("post get-health");
    daemon.pump();
    let mut wire_sum: Option<u64> = None;
    let mut wire_p99: Option<u64> = None;
    let mut health: Option<(u64, Vec<metricsd::wire::SloHealth>)> = None;
    while let Ok(Some(resp)) = clients[0].try_take() {
        match resp {
            Response::RangeReply {
                series: s, points, ..
            } if s == series::READS => {
                wire_sum = Some(points.iter().map(|p| p.1).sum());
            }
            Response::RangeReply {
                series: s, points, ..
            } if s == series::LATENCY_NS => {
                wire_p99 = Some(points[0].1);
            }
            Response::Health { pumps, slos } => health = Some((pumps, slos)),
            _ => {}
        }
    }
    let wire_sum = wire_sum.expect("SUM(READS) answered");
    let wire_p99 = wire_p99.expect("P99(LATENCY_NS) answered");
    let (_, slos) = health.expect("GetHealth answered");
    assert_eq!(wire_sum, reads, "wire SUM(READS) != locally observed reads");
    assert_eq!(
        wire_p99,
        local.percentile(0.99),
        "wire p99 != local histogram p99"
    );
    let breaches: u64 = slos.iter().map(|s| s.breaches).sum();
    let p99_row = slos
        .iter()
        .find(|s| s.kind == metricsd::SloKind::P99LatencyNs as u8)
        .expect("p99 SLO row present");
    let evict_row = slos
        .iter()
        .find(|s| s.kind == metricsd::SloKind::EvictionsPerWindow as u8)
        .expect("eviction SLO row present");
    assert!(
        p99_row.breaches >= 1,
        "impossible p99 target never breached"
    );
    assert_eq!(
        evict_row.breaches, 0,
        "eviction SLO breached without evictions"
    );
    let exemplar_trace_id = p99_row.exemplar_trace_id;

    // Exemplar resolution: the id the watchdog hands out must point at
    // spans recorded by a client AND inside the daemon.
    let daemon_tracks = daemon.trace_tracks();
    let has_span = |evs: &[simtrace::TraceEvent], id: u64| {
        evs.iter()
            .any(|e| matches!(e.kind, EventKind::SpanBegin) && e.a == id)
    };
    let exemplar_resolved = if traced {
        assert!(exemplar_trace_id != 0, "traced run produced no exemplar");
        let in_daemon = daemon_tracks
            .iter()
            .any(|t| has_span(&t.events, exemplar_trace_id));
        let in_client = clients
            .iter()
            .any(|c| has_span(&c.trace_track().events, exemplar_trace_id));
        assert!(
            in_daemon && in_client,
            "exemplar {exemplar_trace_id:#x} did not resolve \
             (daemon={in_daemon} client={in_client})"
        );
        true
    } else {
        assert_eq!(exemplar_trace_id, 0, "untraced run leaked an exemplar");
        false
    };

    // One Perfetto timeline across client + daemon tracks, flow-linked.
    let (flow_json_ok, perfetto_json) = if traced {
        let mut tracks = Vec::new();
        for c in clients.iter().take(8) {
            tracks.push(c.trace_track());
        }
        tracks.extend(daemon_tracks);
        let json = simtrace::chrome_trace_json(&tracks);
        assert!(jsonw::validate(&json), "Perfetto export is valid JSON");
        assert!(
            json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""),
            "no flow arrows in the Perfetto export"
        );
        (true, json)
    } else {
        (false, String::new())
    };

    // Throughput storm: how fast does QueryRange serve when hammered?
    let t0 = Instant::now();
    let mut queries = 0u64;
    for _ in 0..STORM_PUMPS {
        for c in clients.iter_mut() {
            for _ in 0..STORM_QUERIES_PER_SESSION {
                c.post(&Request::QueryRange {
                    series: series::READS,
                    agg: agg::SUM,
                    start_tick: 0,
                    end_tick: u64::MAX,
                    max_points: 64,
                })
                .expect("post storm query");
            }
        }
        daemon.pump();
        for c in clients.iter_mut() {
            while let Ok(Some(resp)) = c.try_take() {
                if matches!(resp, Response::RangeReply { .. }) {
                    queries += 1;
                }
            }
        }
    }
    let storm_wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        queries,
        n_sessions as u64 * STORM_PUMPS * STORM_QUERIES_PER_SESSION as u64,
        "storm queries lost"
    );

    let history_digest = daemon.history().digest();
    QueryPhaseResult {
        reads,
        queries,
        storm_wall_s,
        p99_sim_ns: wire_p99,
        history_digest,
        breaches,
        exemplar_trace_id,
        exemplar_resolved,
        flow_json_ok,
        perfetto_json,
    }
}

struct QuerySuite {
    queries_per_sec: f64,
    p99_sim_ns: u64,
    breaches: u64,
    exemplar_resolved: bool,
}

/// Run the query phase traced, plus an untraced control that must serve
/// the same reads and p99. Returns the summary for the bench JSON and
/// optionally writes the Perfetto timeline.
fn run_query_suite(n_sessions: usize, pumps: u64, trace_out: Option<&str>) -> QuerySuite {
    let r = run_query_phase(n_sessions, pumps, true);
    let queries_per_sec = r.queries as f64 / r.storm_wall_s.max(1e-9);
    eprintln!(
        "  query: {} reads, p99={}ns, {} queries in {:.3}s ({:.0}/s), \
         breaches={}, exemplar={:#x}, history_digest={:016x}",
        r.reads,
        r.p99_sim_ns,
        r.queries,
        r.storm_wall_s,
        queries_per_sec,
        r.breaches,
        r.exemplar_trace_id,
        r.history_digest,
    );
    // Tracing must not perturb the measurement: the untraced control
    // reports the same reads and p99 (its history digest differs only
    // by the exemplar ids, which is why it is not compared).
    let control = run_query_phase(n_sessions, pumps, false);
    assert_eq!(
        control.reads, r.reads,
        "tracing changed the number of reads served"
    );
    assert_eq!(
        control.p99_sim_ns, r.p99_sim_ns,
        "tracing changed the served latency distribution"
    );
    if let Some(path) = trace_out {
        std::fs::write(path, &r.perfetto_json).expect("write trace JSON");
        eprintln!("  wrote {path}");
    }
    QuerySuite {
        queries_per_sec,
        p99_sim_ns: r.p99_sim_ns,
        breaches: r.breaches,
        exemplar_resolved: r.exemplar_resolved && r.flow_json_ok,
    }
}

fn main() {
    // Assertion failures print the last stashed flight-recorder dump.
    simtrace::postmortem::install();
    let mut quick = false;
    let mut sessions: Option<usize> = None;
    let mut pumps: Option<u64> = None;
    let mut reps: Option<u64> = None;
    let mut out = "BENCH_metricsd.json".to_string();
    let mut floor_per_core: Option<f64> = None;
    let mut fanout_sessions: Option<usize> = None;
    let mut fanout_pumps: Option<u64> = None;
    let mut no_fanout = false;
    let mut query_smoke = false;
    let mut floor_queries: Option<f64> = None;
    let mut trace_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--sessions" => {
                sessions = Some(args.next().expect("--sessions N").parse().expect("count"))
            }
            "--pumps" => pumps = Some(args.next().expect("--pumps T").parse().expect("count")),
            "--reps" => reps = Some(args.next().expect("--reps R").parse().expect("count")),
            "--out" => out = args.next().expect("--out PATH"),
            "--floor-per-core" => {
                floor_per_core = Some(
                    args.next()
                        .expect("--floor-per-core N")
                        .parse()
                        .expect("reads/s"),
                )
            }
            "--fanout-sessions" => {
                fanout_sessions = Some(
                    args.next()
                        .expect("--fanout-sessions N")
                        .parse()
                        .expect("count"),
                )
            }
            "--fanout-pumps" => {
                fanout_pumps = Some(
                    args.next()
                        .expect("--fanout-pumps T")
                        .parse()
                        .expect("count"),
                )
            }
            "--no-fanout" => no_fanout = true,
            "--query-smoke" => query_smoke = true,
            "--floor-queries" => {
                floor_queries = Some(
                    args.next()
                        .expect("--floor-queries N")
                        .parse()
                        .expect("queries/s"),
                )
            }
            "--trace-out" => trace_out = Some(args.next().expect("--trace-out PATH")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: loadgen [--quick] [--sessions N] [--pumps T] [--reps R] [--out PATH]\n\
                     \u{20}      [--floor-per-core N] [--fanout-sessions N] [--fanout-pumps T]\n\
                     \u{20}      [--no-fanout] [--query-smoke] [--floor-queries N] [--trace-out PATH]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    let n_sessions = sessions.unwrap_or(if quick { 1024 } else { 2048 });
    let pumps = pumps.unwrap_or(if quick { 16 } else { 40 });
    let reps = reps.unwrap_or(3);
    let fanout_sessions = fanout_sessions.unwrap_or(100_000);
    let fanout_pumps = fanout_pumps.unwrap_or(if quick { 6 } else { 10 });
    let n_cores = cores();

    // Fast path for tier-1: just the query/SLO/tracing phase, with its
    // full exemplar + flow-export assertions.
    if query_smoke {
        eprintln!("loadgen: query smoke, traced + untraced control");
        let suite = run_query_suite(64, 24, trace_out.as_deref());
        if let Some(floor) = floor_queries {
            if suite.queries_per_sec < floor {
                eprintln!(
                    "FAIL: query throughput floor violated ({:.0} < {floor:.0})",
                    suite.queries_per_sec
                );
                std::process::exit(1);
            }
        }
        eprintln!(
            "loadgen: query smoke OK ({:.0} queries/s, {} breaches, exemplar resolved)",
            suite.queries_per_sec, suite.breaches
        );
        return;
    }

    eprintln!(
        "loadgen: {n_sessions} sessions, {pumps} pumps, {reps} reps \
         + serial reference ({n_cores} cores)"
    );
    let fleet = run_best_of(n_sessions, pumps, reps);
    let rps = fleet.reads_per_sec();
    let per_core = rps / n_cores as f64;
    eprintln!(
        "  fleet: {} reads in {:.3}s ({:.0} reads/s, {:.0}/core), \
             sim p50={}ns p99={}ns, wall p50={}ns p99={}ns, \
             digest={:016x}, evicted_slow_consumer={}",
        fleet.reads,
        fleet.wall_s,
        rps,
        per_core,
        percentile_of_sorted(&fleet.latencies_ns, 0.50),
        percentile_of_sorted(&fleet.latencies_ns, 0.99),
        percentile_of_sorted(&fleet.wall_latencies_ns, 0.50),
        percentile_of_sorted(&fleet.wall_latencies_ns, 0.99),
        fleet.digest,
        fleet.evicted_slow_consumer
    );
    let reference = run_reference(n_sessions, pumps);
    eprintln!("  serial reference digest={reference:016x}");

    let fanout = if no_fanout {
        None
    } else {
        eprintln!("loadgen: high-fanout phase, {fanout_sessions} sessions, {fanout_pumps} pumps");
        let f = run_fanout(fanout_sessions, fanout_pumps);
        eprintln!(
            "  fanout: {} sessions ({} subscribers, {} readers), {} frames in {:.3}s \
             ({:.0} frames/s, {:.0}/core), reader wall p50={}ns p99={}ns, \
             {} mirrors CRC-synced, evictions={}",
            f.sessions,
            f.subscribers,
            f.readers,
            f.frames,
            f.wall_s,
            f.frames as f64 / f.wall_s.max(1e-9),
            f.frames as f64 / f.wall_s.max(1e-9) / n_cores as f64,
            percentile_of_sorted(&f.wall_latencies_ns, 0.50),
            percentile_of_sorted(&f.wall_latencies_ns, 0.99),
            f.mirrors_checked,
            f.evictions,
        );
        Some(f)
    };

    eprintln!("loadgen: query/SLO phase, traced + untraced control");
    let query_suite = run_query_suite(
        if quick { 64 } else { 128 },
        if quick { 24 } else { 32 },
        trace_out.as_deref(),
    );

    let digests_match = fleet.digest == reference;
    let evictions_ok = fleet.evicted_slow_consumer && fleet.healthy_evictions == 0;

    let mut w = jsonw::JsonWriter::new();
    w.begin_obj();
    w.field_str("bench", "metricsd");
    w.field_bool("quick", quick);
    w.field_u64("sessions", n_sessions as u64);
    w.field_u64("pumps", pumps);
    w.field_u64("reps", reps);
    w.field_u64("ticks_per_pump", TICKS_PER_PUMP as u64);
    w.field_u64("stall_grace_pumps", STALL_GRACE_PUMPS as u64);
    w.field_u64("cores", n_cores);
    w.key("fleet");
    w.begin_obj();
    w.field_u64("reads", fleet.reads);
    w.field_f64("wall_s", fleet.wall_s);
    w.field_f64("reads_per_sec", rps);
    w.field_f64("reads_per_sec_per_core", per_core);
    w.field_u64(
        "p50_latency_sim_ns",
        percentile_of_sorted(&fleet.latencies_ns, 0.50),
    );
    w.field_u64(
        "p99_latency_sim_ns",
        percentile_of_sorted(&fleet.latencies_ns, 0.99),
    );
    w.field_u64(
        "p50_latency_wall_ns",
        percentile_of_sorted(&fleet.wall_latencies_ns, 0.50),
    );
    w.field_u64(
        "p99_latency_wall_ns",
        percentile_of_sorted(&fleet.wall_latencies_ns, 0.99),
    );
    w.field_str("digest", &format!("{:016x}", fleet.digest));
    w.field_bool("evicted_slow_consumer", fleet.evicted_slow_consumer);
    w.field_u64("healthy_evictions", fleet.healthy_evictions);
    w.end_obj();
    if let Some(f) = &fanout {
        w.key("fanout");
        w.begin_obj();
        w.field_u64("sessions", f.sessions);
        w.field_u64("subscribers", f.subscribers);
        w.field_u64("readers", f.readers);
        w.field_u64("pumps", f.pumps);
        w.field_f64("wall_s", f.wall_s);
        w.field_u64("frames", f.frames);
        w.field_f64("frames_per_sec", f.frames as f64 / f.wall_s.max(1e-9));
        w.field_f64(
            "frames_per_sec_per_core",
            f.frames as f64 / f.wall_s.max(1e-9) / n_cores as f64,
        );
        w.field_u64(
            "reader_p50_wall_ns",
            percentile_of_sorted(&f.wall_latencies_ns, 0.50),
        );
        w.field_u64(
            "reader_p99_wall_ns",
            percentile_of_sorted(&f.wall_latencies_ns, 0.99),
        );
        w.field_u64("mirrors_checked", f.mirrors_checked);
        w.field_u64("evictions", f.evictions);
        w.end_obj();
    }
    w.key("queries");
    w.begin_obj();
    w.field_f64("queries_per_sec", query_suite.queries_per_sec);
    w.field_u64("p99_latency_sim_ns", query_suite.p99_sim_ns);
    w.field_u64("slo_breaches", query_suite.breaches);
    w.field_bool("exemplar_resolved", query_suite.exemplar_resolved);
    w.end_obj();
    w.field_str("serial_reference_digest", &format!("{reference:016x}"));
    w.field_bool("digests_match", digests_match);
    w.field_bool("evictions_ok", evictions_ok);
    w.end_obj();
    let json = w.finish();
    assert!(jsonw::validate(&json), "loadgen emits valid JSON");
    std::fs::write(&out, &json).expect("write BENCH json");
    println!("{json}");
    eprintln!("wrote {out}");

    if !digests_match {
        eprintln!("FAIL: fleet digest diverges from the serial reference");
        std::process::exit(1);
    }
    if !evictions_ok {
        eprintln!("FAIL: eviction ledger wrong (missing slow-consumer eviction or a healthy one)");
        std::process::exit(1);
    }
    if let Some(floor) = floor_per_core {
        if per_core < floor {
            eprintln!("FAIL: per-core throughput floor violated ({per_core:.0} < {floor:.0})");
            std::process::exit(1);
        }
    }
    if let Some(floor) = floor_queries {
        if query_suite.queries_per_sec < floor {
            eprintln!(
                "FAIL: query throughput floor violated ({:.0} < {floor:.0})",
                query_suite.queries_per_sec
            );
            std::process::exit(1);
        }
    }
}
