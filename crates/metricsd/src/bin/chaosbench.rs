//! chaosbench — prove the chaos-hardening invariant: a fleet of
//! resilient clients driven through every transport fault preset (and
//! through deliberate server overload) ends with counter digests
//! **bit-identical** to the fault-free run, with zero lost or
//! duplicated RPCs.
//!
//! The schedule is built so that chaos can perturb *when* things
//! happen but never *what* is measured:
//!
//! 1. **Setup on quiescent pumps** — hellos and subscribes run while
//!    the daemon pumps zero kernel ticks. Counter values are frozen at
//!    their boot state, so a subscribe delayed three retries by a
//!    stalled link still baselines the exact same values.
//! 2. **Exactly R ticking pumps** — the only phase where sim time
//!    advances. Sessions never touch the kernel, so the counter
//!    trajectory depends only on this fixed pump count.
//! 3. **Quiescent drain** — final reads ride out any remaining
//!    retries/resumes with the counters frozen at their final values.
//!
//! The digest covers per-client final `(metric, value)` pairs only —
//! not ticks or latencies, which legitimately differ under chaos.
//!
//! Emits `BENCH_chaos.json` with per-scenario injected-fault counts,
//! client recovery stats, and daemon self-metrics (retries, sheds,
//! resumes). Exit status is non-zero on any digest mismatch, lost or
//! duplicated RPC, lost session, or a fault preset that injected
//! nothing.
//!
//! ```text
//! chaosbench [--quick] [--clients N] [--rounds R] [--out PATH]
//! ```

mod common;

use std::sync::Arc;

use parking_lot::Mutex;

use metricsd::queue::ClientPipe;
use metricsd::wire::{agg, fnv64, series, Request, Response};
use metricsd::{
    ChaosConfig, ChaosStats, ChaosTransport, Connector, Daemon, DaemonConfig, MirrorOutcome,
    ResilientClient, ResilientStats, SloSpec, StreamMirror,
};
use simtrace::TraceConfig;

use common::{boot_machine, final_values_digest, session_mask, session_metrics};

const TICKS_PER_PUMP: u32 = 10;
/// Quiescent pumps allowed for setup / drain before declaring a wedge.
const PHASE_CAP: u64 = 4000;

fn session_cadence(i: usize) -> u64 {
    1 + (i % 4) as u64
}

type Dial = Box<dyn FnMut() -> Option<ChaosTransport<ClientPipe>>>;

/// One client of the fleet: a resilient client plus its bench-side
/// RPC accounting. `begun == completed` at scenario end is the
/// zero-lost/zero-duplicated claim — every RPC the bench issued came
/// back exactly once (ResilientClient's single done slot cannot
/// deliver a result twice for one begin).
struct Bot {
    c: ResilientClient<ChaosTransport<ClientPipe>, Dial>,
    chaos_sink: Arc<Mutex<ChaosStats>>,
    sub_id: u32,
    begun: u64,
    completed: u64,
    pending_final: bool,
    final_vals: Option<Vec<(u8, u64)>>,
    /// Every third bot is also a delta-stream subscriber: it mirrors
    /// the daemon's per-tick counter state from keyframe/delta pushes
    /// and must end every scenario synced (CRC-verified), whatever the
    /// transport did to the push stream in between.
    mirror: Option<StreamMirror>,
    /// Delta stream acked by the daemon.
    stream_ready: bool,
    /// Mirror desynced (gap or CRC): nack with `AckTick 0` when idle.
    need_nack: bool,
}

impl Bot {
    /// Begin an RPC, which the bench must see completed exactly once.
    fn begin(&mut self, req: &Request) {
        assert!(self.c.begin(req));
        self.begun += 1;
    }
}

/// Feed any queued pushes through the bot's mirror. A delta that does
/// not apply flips `need_nack`; the bot resolves it with an `AckTick 0`
/// RPC at the next idle step, and the daemon answers the nack with a
/// keyframe on the following push.
fn drain_pushes(b: &mut Bot) {
    while let Some(push) = b.c.pushes.pop_front() {
        if let Some(m) = b.mirror.as_mut() {
            match m.apply(&push) {
                MirrorOutcome::Applied => b.need_nack = false,
                MirrorOutcome::NeedKeyframe => b.need_nack = true,
                MirrorOutcome::NotStream => {}
            }
        }
    }
}

/// A scenario's daemon and the fleet of bots it serves.
struct Fleet {
    name: &'static str,
    daemon: Daemon,
    bots: Vec<Bot>,
}

impl Fleet {
    /// One pump of a scenario phase. Every bot, in fleet order, may begin
    /// an RPC (`turn` returns false to sit the pump out), then steps its
    /// client, feeds queued pushes to its mirror, and must still hold its
    /// session; an RPC that finished counts as completed, must have
    /// succeeded, and goes to `done` with its reply. Then the daemon
    /// pumps: a ticking pump when `quiescent` is `None`, otherwise a
    /// zero-tick pump counted into the phase's pumps, which must stay
    /// under [`PHASE_CAP`].
    fn pump(
        &mut self,
        phase: &str,
        quiescent: Option<&mut u64>,
        mut turn: impl FnMut(usize, &mut Bot) -> bool,
        mut done: impl FnMut(usize, &mut Bot, Response),
    ) {
        let name = self.name;
        let ticking = quiescent.is_none();
        if let Some(pumps) = quiescent {
            *pumps += 1;
            assert!(*pumps < PHASE_CAP, "{name}: {phase} phase wedged");
        }
        for (i, b) in self.bots.iter_mut().enumerate() {
            if !turn(i, b) {
                continue;
            }
            b.c.step();
            drain_pushes(b);
            assert!(
                !b.c.take_session_lost(),
                "{name}: client {i} lost its session in the {phase} phase"
            );
            match b.c.take_done() {
                Some(Ok(resp)) => {
                    b.completed += 1;
                    done(i, b, resp);
                }
                Some(Err(e)) => panic!("{name}: client {i} {phase} rpc failed: {e:?}"),
                None => {}
            }
        }
        if ticking {
            self.daemon.pump();
        } else {
            self.daemon.pump_quiescent();
        }
    }
}

/// The turn of a phase that begins nothing per pump: every bot steps.
fn step_only(_: usize, _: &mut Bot) -> bool {
    true
}

fn make_bot(connector: &Connector, chaos: ChaosConfig, idx: usize, scenario_seed: u64) -> Bot {
    let sink = Arc::new(Mutex::new(ChaosStats::default()));
    let conn = connector.clone();
    let sink2 = Arc::clone(&sink);
    let mut attempt: u64 = 0;
    // Every redial gets a distinct fault plan (mixing the attempt
    // counter into the seed) — otherwise a link that dies on frame one
    // replays the same death forever.
    let dial: Dial = Box::new(move || {
        attempt += 1;
        let seed = scenario_seed
            ^ (idx as u64).wrapping_mul(0x9e3779b97f4a7c15)
            ^ attempt.wrapping_mul(0xd1b54a32d192ed03);
        Some(
            ChaosTransport::new(conn.connect(), chaos.with_seed(seed))
                .with_shared_stats(Arc::clone(&sink2)),
        )
    });
    let mut c = ResilientClient::new(dial, scenario_seed ^ idx as u64);
    // Every 8th RPC carries a sampled trace context in its frame header
    // through whatever the chaos preset does to the link — a corrupted
    // header must come back as a typed refusal and reissue like any
    // other frame, and the scenario digests (compared against the
    // fault-free reference) prove sampling perturbs nothing.
    c.set_trace_sampling(8);
    Bot {
        c,
        chaos_sink: sink,
        sub_id: 0,
        begun: 0,
        completed: 0,
        pending_final: false,
        final_vals: None,
        mirror: idx.is_multiple_of(3).then(StreamMirror::new),
        stream_ready: false,
        need_nack: false,
    }
}

fn add_stats(sum: &mut ResilientStats, s: &ResilientStats) {
    sum.completed += s.completed;
    sum.retries += s.retries;
    sum.conn_resets += s.conn_resets;
    sum.reconnects += s.reconnects;
    sum.resumes += s.resumes;
    sum.gap_pumps += s.gap_pumps;
    sum.overloads += s.overloads;
    sum.sessions_lost += s.sessions_lost;
    sum.give_ups += s.give_ups;
}

struct ScenarioResult {
    name: &'static str,
    digest: u64,
    setup_pumps: u64,
    drain_pumps: u64,
    begun: u64,
    completed: u64,
    queries_ok: u64,
    health_ok: u64,
    client: ResilientStats,
    injected: ChaosStats,
    server: Vec<(&'static str, u64)>,
    delta_bots: u64,
    stream_keyframes: u64,
    stream_deltas: u64,
    stream_desyncs: u64,
}

const SERVER_COUNTERS: [&str; 6] = [
    "conn_parks",
    "sessions_resumed",
    "reqs_shed",
    "dup_reissues",
    "bad_checksums",
    "parked_reaped",
];

fn run_scenario(
    name: &'static str,
    chaos: ChaosConfig,
    overload: bool,
    n_clients: usize,
    rounds: u64,
) -> ScenarioResult {
    let dcfg = DaemonConfig {
        // Overload scenarios give the daemon a pump budget below the
        // fleet's steady-state arrival rate, so it must shed every pump
        // — with a typed Overloaded, never by eviction.
        ticks_per_pump: TICKS_PER_PUMP,
        pump_budget: if overload { 2 } else { 0 },
        deadline_pumps: if overload { 3 } else { 0 },
        // An impossible p99 target keeps the SLO watchdog busy while
        // the transport misbehaves; `GetHealth` rows must stay typed
        // and decodable through every preset.
        slos: vec![SloSpec::p99_latency_ns(1, 4)],
        ..DaemonConfig::default()
    };
    let daemon = Daemon::new(boot_machine(TraceConfig::default()), dcfg);
    let n_cpus = daemon.n_cpus() as usize;
    let connector = daemon.connector();
    let scenario_seed = fnv64(name.as_bytes());
    let bots = (0..n_clients)
        .map(|i| make_bot(&connector, chaos, i, scenario_seed))
        .collect();
    let mut fleet = Fleet { name, daemon, bots };

    // Phase 1 — setup on quiescent pumps: counters frozen at boot
    // values, so baselines are identical however long chaos delays
    // each subscribe.
    for (i, b) in fleet.bots.iter_mut().enumerate() {
        b.begin(&Request::Subscribe {
            cpu_mask: session_mask(i, n_cpus),
            metrics: session_metrics(i),
        });
    }
    let mut setup_pumps = 0u64;
    while fleet.bots.iter().any(|b| b.sub_id == 0) {
        let done = |i, b: &mut Bot, resp| match resp {
            Response::Subscribed { sub_id, .. } => b.sub_id = sub_id,
            other => panic!("{name}: client {i} subscribe answered {other:?}"),
        };
        fleet.pump("setup", Some(&mut setup_pumps), step_only, done);
    }

    // Phase 1b — delta subscribers enable their push stream, still on
    // quiescent pumps (pushes begin flowing, frozen at boot values).
    for b in fleet.bots.iter_mut().filter(|b| b.mirror.is_some()) {
        b.begin(&Request::StreamDeltas { every_pumps: 1 });
    }
    let streaming = |b: &Bot| b.mirror.is_some() && !b.stream_ready;
    while fleet.bots.iter().any(streaming) {
        let done = |i, b: &mut Bot, resp| match resp {
            Response::Subscribed { .. } => b.stream_ready = true,
            other => panic!("{name}: client {i} stream setup answered {other:?}"),
        };
        fleet.pump("stream setup", Some(&mut setup_pumps), step_only, done);
    }

    // Phase 2 — exactly `rounds` ticking pumps: the only phase where
    // sim time advances, so every scenario measures the same machine
    // history. Delta mirrors ride along: a push eaten by chaos shows up
    // as a base-tick gap, the mirror nacks, and the daemon heals the
    // stream with a keyframe — all without perturbing a single counter.
    for round in 0..rounds {
        let turn = |i, b: &mut Bot| {
            if b.c.is_idle() {
                if b.need_nack {
                    b.begin(&Request::AckTick { tick: 0 });
                    b.need_nack = false;
                } else if round % session_cadence(i) == 0 {
                    b.begin(&Request::Read {
                        sub_id: b.sub_id,
                        submit_ns: 0,
                    });
                }
            }
            true
        };
        fleet.pump("ticking", None, turn, |_, _, _| {});
    }

    // Phase 3 — quiescent drain: stragglers finish, then one final
    // read per client with the counters frozen at their end state.
    let mut drain_pumps = 0u64;
    while fleet.bots.iter().any(|b| b.final_vals.is_none()) {
        let turn = |_, b: &mut Bot| {
            if b.final_vals.is_some() {
                return false;
            }
            if !b.pending_final && b.c.is_idle() {
                b.begin(&Request::Read {
                    sub_id: b.sub_id,
                    submit_ns: 0,
                });
                b.pending_final = true;
            }
            true
        };
        // A reply before the final read is a straggling main-phase read
        // completing late.
        fleet.pump("drain", Some(&mut drain_pumps), turn, |i, b, resp| {
            if b.pending_final {
                match resp {
                    Response::Counters { values, .. } => {
                        b.final_vals = Some(values.iter().map(|v| (v.metric, v.value)).collect());
                    }
                    other => panic!("{name}: client {i} final read answered {other:?}"),
                }
            }
        });
    }

    // Phase 3c — ranged history queries and the SLO health row through
    // the same chaotic links: read-only, so they reissue freely and
    // cannot perturb the counter digest; replies must stay typed
    // (`RangeReply`/`Health`), never a panic or a silent drop.
    let mut queries_ok = 0u64;
    let mut health_ok = 0u64;
    for (i, b) in fleet.bots.iter_mut().enumerate() {
        let req = if i % 2 == 0 {
            Request::QueryRange {
                series: series::READS,
                agg: agg::SUM,
                start_tick: 0,
                end_tick: u64::MAX,
                max_points: 64,
            }
        } else {
            Request::GetHealth
        };
        b.begin(&req);
    }
    let mut query_pumps = 0u64;
    while fleet.bots.iter().any(|b| !b.c.is_idle()) {
        let done = |i, _: &mut Bot, resp| match resp {
            Response::RangeReply { .. } => queries_ok += 1,
            Response::Health { slos, .. } => {
                assert!(!slos.is_empty(), "{name}: health reply lost its SLO rows");
                health_ok += 1;
            }
            other => panic!("{name}: client {i} query answered {other:?}"),
        };
        fleet.pump("query", Some(&mut query_pumps), step_only, done);
    }
    assert!(
        queries_ok >= 1 && health_ok >= 1,
        "{name}: query/health phase served nothing (queries={queries_ok} health={health_ok})"
    );

    // Phase 3b — stream settle: every delta mirror must converge to a
    // CRC-verified synced state with no RPC left in flight. Chaos may
    // have eaten the latest keyframe (or may corrupt one mid-settle),
    // so keep nacking/stepping until a clean pass: all mirrors synced
    // AND all clients idle, checked together so a late desync re-enters
    // the loop instead of slipping past the ledger asserts. Pushes
    // continue on quiescent pumps; counters stay frozen.
    let converged = |b: &Bot| {
        b.c.is_idle()
            && b.mirror
                .as_ref()
                .is_none_or(|m| m.synced && m.keyframes >= 1 && !b.need_nack)
    };
    let mut settle_pumps = 0u64;
    while !fleet.bots.iter().all(converged) {
        let turn = |_, b: &mut Bot| {
            if b.need_nack && b.c.is_idle() {
                b.begin(&Request::AckTick { tick: 0 });
                b.need_nack = false;
            }
            true
        };
        fleet.pump("settle", Some(&mut settle_pumps), turn, |_, _, _| {});
    }
    let Fleet { daemon, bots, .. } = fleet;
    let digest = final_values_digest(
        bots.iter()
            .map(|b| b.final_vals.as_deref().expect("final read present")),
    );
    let mut begun = 0u64;
    let mut completed = 0u64;
    let mut client = ResilientStats::default();
    let mut delta_bots = 0u64;
    let mut stream_keyframes = 0u64;
    let mut stream_deltas = 0u64;
    let mut stream_desyncs = 0u64;
    for (i, b) in bots.iter().enumerate() {
        if let Some(m) = &b.mirror {
            assert!(m.synced, "{name}: client {i} mirror ended unsynced");
            assert!(
                m.keyframes >= 1,
                "{name}: client {i} mirror never saw a keyframe"
            );
            delta_bots += 1;
            stream_keyframes += m.keyframes;
            stream_deltas += m.deltas;
            stream_desyncs += m.desyncs;
        }
        let s = b.c.stats();
        assert_eq!(
            b.begun, b.completed,
            "{name}: client {i} lost or dropped an RPC"
        );
        assert_eq!(s.give_ups, 0, "{name}: client {i} gave up on an RPC");
        assert_eq!(s.sessions_lost, 0, "{name}: client {i} lost its session");
        begun += b.begun;
        completed += b.completed;
        add_stats(&mut client, &s);
    }

    // Transports still alive hold unflushed stats; dropping the fleet
    // merges them into the shared sinks.
    let sinks: Vec<Arc<Mutex<ChaosStats>>> =
        bots.iter().map(|b| Arc::clone(&b.chaos_sink)).collect();
    drop(bots);
    let mut injected = ChaosStats::default();
    for s in &sinks {
        injected.merge(&s.lock());
    }

    let server: Vec<(&'static str, u64)> = SERVER_COUNTERS
        .iter()
        .map(|&want| {
            let v = daemon
                .self_metrics()
                .counters()
                .find(|(n, _)| *n == want)
                .map(|(_, v)| v)
                .unwrap_or(0);
            (want, v)
        })
        .collect();
    let server_get = |want: &str| server.iter().find(|(n, _)| *n == want).unwrap().1;

    simtrace::postmortem::stash(simtrace::text_dump(&daemon.trace_tracks(), 32));

    // Cross-checks between the three independent ledgers (injector,
    // client, daemon). Replies can be lost under chaos, so the daemon
    // may count recoveries the client never saw — never the reverse.
    assert!(
        server_get("sessions_resumed") >= client.resumes,
        "{name}: daemon resumed fewer sessions than clients observed"
    );
    assert!(
        server_get("conn_parks") >= client.resumes,
        "{name}: every resume needs a prior park"
    );
    if chaos.is_off() {
        // Loss-free link: every shed reply reaches a client, so the
        // two ledgers must agree exactly.
        assert_eq!(
            server_get("reqs_shed"),
            client.overloads,
            "{name}: shed/overload ledgers disagree on a loss-free link"
        );
        assert_eq!(
            injected.total(),
            0,
            "{name}: fault-free run injected faults"
        );
    } else {
        assert!(
            injected.total() > 0,
            "{name}: chaos preset injected nothing"
        );
        assert!(
            server_get("reqs_shed") >= client.overloads,
            "{name}: clients observed sheds the daemon never issued"
        );
    }
    if overload {
        assert!(
            server_get("reqs_shed") > 0,
            "{name}: overload scenario never shed"
        );
    }
    if chaos.reset_pm > 0 {
        assert!(injected.resets > 0, "{name}: reset preset never reset");
        assert!(client.resumes > 0, "{name}: resets without a single resume");
    }

    ScenarioResult {
        name,
        digest,
        setup_pumps,
        drain_pumps,
        begun,
        completed,
        queries_ok,
        health_ok,
        client,
        injected,
        server,
        delta_bots,
        stream_keyframes,
        stream_deltas,
        stream_desyncs,
    }
}

fn main() {
    simtrace::postmortem::install();
    let mut quick = false;
    let mut clients: Option<usize> = None;
    let mut rounds: Option<u64> = None;
    let mut out = "BENCH_chaos.json".to_string();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--clients" => {
                clients = Some(args.next().expect("--clients N").parse().expect("count"))
            }
            "--rounds" => rounds = Some(args.next().expect("--rounds R").parse().expect("count")),
            "--out" => out = args.next().expect("--out PATH"),
            "--help" | "-h" => {
                eprintln!("usage: chaosbench [--quick] [--clients N] [--rounds R] [--out PATH]");
                return;
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    let n_clients = clients.unwrap_or(if quick { 6 } else { 10 });
    let rounds = rounds.unwrap_or(if quick { 24 } else { 60 });

    // (name, chaos preset, server overload knobs on). "none" is the
    // fault-free reference every other digest must match bit-for-bit.
    let scenarios: &[(&'static str, &str, bool)] = &[
        ("none", "off", false),
        ("reset", "reset", false),
        ("stall", "stall", false),
        ("short", "short", false),
        ("truncate", "truncate", false),
        ("corrupt", "corrupt", false),
        ("delay", "delay", false),
        ("mix", "mix", false),
        ("heavy", "heavy", false),
        ("overload", "off", true),
        ("overload_mix", "mix", true),
    ];

    eprintln!(
        "chaosbench: {n_clients} clients, {rounds} ticking rounds, {} scenarios",
        scenarios.len()
    );
    let results: Vec<ScenarioResult> = scenarios
        .iter()
        .map(|&(name, preset, overload)| {
            let chaos = ChaosConfig::preset(preset).expect("known preset");
            let r = run_scenario(name, chaos, overload, n_clients, rounds);
            eprintln!(
                "  {:<13} digest={:016x} rpcs={}/{} retries={} resets={} resumes={} \
                 overloads={} injected={} shed={} stream(kf={} d={} desync={})",
                r.name,
                r.digest,
                r.completed,
                r.begun,
                r.client.retries,
                r.client.conn_resets,
                r.client.resumes,
                r.client.overloads,
                r.injected.total(),
                r.server.iter().find(|(n, _)| *n == "reqs_shed").unwrap().1,
                r.stream_keyframes,
                r.stream_deltas,
                r.stream_desyncs,
            );
            r
        })
        .collect();

    let reference = results[0].digest;
    let all_match = results.iter().all(|r| r.digest == reference);

    let mut w = jsonw::JsonWriter::new();
    w.begin_obj();
    w.field_str("bench", "metricsd-chaos");
    w.field_bool("quick", quick);
    w.field_u64("clients", n_clients as u64);
    w.field_u64("rounds", rounds);
    w.field_u64("ticks_per_pump", TICKS_PER_PUMP as u64);
    w.field_str("reference_digest", &format!("{reference:016x}"));
    w.field_bool("all_digests_match", all_match);
    w.key("scenarios");
    w.begin_arr();
    for r in &results {
        w.begin_obj();
        w.field_str("name", r.name);
        w.field_str("digest", &format!("{:016x}", r.digest));
        w.field_bool("digest_match", r.digest == reference);
        w.field_u64("setup_pumps", r.setup_pumps);
        w.field_u64("drain_pumps", r.drain_pumps);
        w.field_u64("rpcs_begun", r.begun);
        w.field_u64("rpcs_completed", r.completed);
        w.field_u64("range_queries_ok", r.queries_ok);
        w.field_u64("health_queries_ok", r.health_ok);
        w.key("stream");
        w.begin_obj();
        w.field_u64("delta_subscribers", r.delta_bots);
        w.field_u64("keyframes_applied", r.stream_keyframes);
        w.field_u64("deltas_applied", r.stream_deltas);
        w.field_u64("desyncs_recovered", r.stream_desyncs);
        w.end_obj();
        w.key("client");
        w.begin_obj();
        w.field_u64("retries", r.client.retries);
        w.field_u64("conn_resets", r.client.conn_resets);
        w.field_u64("reconnects", r.client.reconnects);
        w.field_u64("resumes", r.client.resumes);
        w.field_u64("gap_pumps", r.client.gap_pumps);
        w.field_u64("overloads", r.client.overloads);
        w.field_u64("sessions_lost", r.client.sessions_lost);
        w.field_u64("give_ups", r.client.give_ups);
        w.end_obj();
        w.key("injected");
        w.begin_obj();
        w.field_u64("frames_sent", r.injected.frames_sent);
        w.field_u64("frames_recvd", r.injected.frames_recvd);
        w.field_u64("resets", r.injected.resets);
        w.field_u64("stalls", r.injected.stalls);
        w.field_u64("short_writes", r.injected.short_writes);
        w.field_u64("truncations", r.injected.truncations);
        w.field_u64("corruptions", r.injected.corruptions);
        w.field_u64("delays", r.injected.delays);
        w.end_obj();
        w.key("server");
        w.begin_obj();
        for (n, v) in &r.server {
            w.field_u64(n, *v);
        }
        w.end_obj();
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    let json = w.finish();
    assert!(jsonw::validate(&json), "chaosbench emits valid JSON");
    std::fs::write(&out, &json).expect("write BENCH json");
    println!("{json}");
    eprintln!("wrote {out}");

    if !all_match {
        eprintln!("FAIL: a chaos scenario's digest diverges from the fault-free reference");
        std::process::exit(1);
    }
}
